import warnings

import numpy as np
import pytest

from lpsens.core import (
    FactoredMatrix,
    RandomSource,
    RankDeficientError,
    WeightVector,
    as_matrix,
    as_vector,
    certified_cholesky,
    lp_norm,
    matrix_rank,
    pivoted_qr,
    pseudoinverse_gram,
    require_tall_full_rank,
)
from lpsens.leverage import leverage_exact
from lpsens.regress import sensitivities_wrt


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

    def test_empty_vector(self):
        assert lp_norm(np.array([]), 1.5) == lp_norm(np.array([]), np.inf) == 0.0

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
        with pytest.raises(ValueError, match="vector entries must be finite"):
            as_vector([1.0, np.nan])


class TestRank:
    def test_rank_of_constructed_matrices(self, np_rng):
        a = np_rng.standard_normal((30, 5))
        assert matrix_rank(a) == 5
        a[:, 4] = a[:, 0] + 2 * a[:, 1]
        assert matrix_rank(a) == 4
        # no Gram to factor and no pivot above zero
        assert matrix_rank(np.zeros((30, 5))) == matrix_rank(np.zeros((3, 5))) == 0
        assert FactoredMatrix.of(np.zeros((30, 5))).w.shape == (5, 0)

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
        # the factor's 2^-e is undone exactly, and a zero A has a zero pseudoinverse
        np.testing.assert_array_equal(
            pseudoinverse_gram(np.ldexp(a, 300)), np.ldexp(pseudoinverse_gram(a), -600)
        )
        np.testing.assert_array_equal(pseudoinverse_gram(np.zeros((6, 3))), np.zeros((3, 3)))


def _conditioned(n, d, cond, seed):
    """U diag(s) V^T with s from 1 down to 1 / cond, rows scaled by exp U(-2, 2)."""
    g = np.random.default_rng(seed)
    u = np.linalg.qr(g.standard_normal((n, d)))[0]
    v = np.linalg.qr(g.standard_normal((d, d)))[0]
    a = (u * np.logspace(0.0, -np.log10(cond), d)) @ v.T
    return a * np.exp(g.uniform(-2.0, 2.0, n))[:, None]


def _gate_outcome(a):
    """The gate's rank error message, or None when it passes."""
    try:
        require_tall_full_rank(a)
    except RankDeficientError as err:
        return str(err)
    return None


def _pivoted_outcome(a):
    """What the gate raised when the pivoted QR alone decided it."""
    n, d = a.shape
    if n < d:
        return f"matrix must be tall, got shape ({n}, {d})"
    rank = pivoted_qr(a).rank
    if rank < d:
        return f"matrix has column rank {rank} < {d}; estimators need full column rank"
    return None


def _extended_leverage(a):
    """Leverage scores from Gram-Schmidt twice over in extended precision."""
    q = a.astype(np.longdouble)
    for j in range(q.shape[1]):
        for _ in range(2):
            q[:, j] -= q[:, :j] @ (q[:, :j].T @ q[:, j])
        q[:, j] /= np.sqrt(q[:, j] @ q[:, j])
    return np.sum(q * q, axis=1).astype(np.float64)


_SHAPES = [(200, 4), (2000, 16)]
_CONDS = [float(c) for c in 10.0 ** np.arange(0.0, 14.5, 0.5)]


class TestCholeskyCertificate:
    """The Gram's Cholesky factor decides rank d only where the pivoted QR does."""

    @pytest.mark.parametrize("shape", _SHAPES, ids=["200x4", "2000x16"])
    def test_cond_sweep_reaches_the_pivoted_qr_decision(self, shape):
        certified = []
        for k, cond in enumerate(_CONDS):
            a = _conditioned(*shape, cond, seed=k)
            factor = certified_cholesky(a)
            certified.append(factor is not None)
            # matrix_rank factors A unscaled and the oracle 2^-e A, by one rule
            assert matrix_rank(a) == FactoredMatrix.of(a).w.shape[1] == pivoted_qr(a).rank, cond
            assert _gate_outcome(a) == _pivoted_outcome(a), cond
            if factor is not None:
                # the bound the certificate rests on: cond_2(A) < 2 kappa
                kappa = np.linalg.norm(factor.r) * np.linalg.norm(factor.r_inv)
                assert np.linalg.cond(a) < 2.0 * kappa
                assert pivoted_qr(a).rank == shape[1]
        # the sweep crosses the certificate once: certified, then refused
        assert certified[0] and not certified[-1]
        assert certified == sorted(certified, reverse=True)
        # and RANK_TOL later still, so refused inputs of both ranks are seen
        assert pivoted_qr(_conditioned(*shape, _CONDS[-1], seed=len(_CONDS) - 1)).rank < shape[1]

    @pytest.mark.parametrize("shape", _SHAPES, ids=["200x4", "2000x16"])
    def test_certified_leverage_row_by_row(self, shape):
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("no extended precision for the reference")
        for k, cond in enumerate(_CONDS):
            a = _conditioned(*shape, cond, seed=k)
            factor = certified_cholesky(a)
            if factor is None:
                continue
            fast = leverage_exact(a).values
            q = pivoted_qr(a).q
            pivoted = np.einsum("ij,ij->i", q, q)
            ref = _extended_leverage(a)
            assert fast.min() < 1e-3 * fast.max()  # tiny scores are in the sweep
            # a row's score moves by about u kappa relative under rounding of A;
            # CholeskyQR2 stays within that, row by row (measured: <= 0.15 u kappa)
            kappa = np.linalg.norm(factor.r) * np.linalg.norm(factor.r_inv)
            eps = np.finfo(np.float64).eps
            np.testing.assert_allclose(fast, ref, rtol=max(1e-13, eps * kappa), atol=0)
            if cond <= 10.0:
                # where the Householder QR itself holds 1e-12 (it errs by up to
                # 16 u kappa on these row-scaled matrices), the two agree to it
                np.testing.assert_allclose(fast, pivoted, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", _SHAPES, ids=["200x4", "2000x16"])
    def test_gate_q_is_fortran_ordered_and_orthonormal(self, shape):
        # the Lewis iteration scales q into a Fortran-ordered buffer, so both
        # gate paths hand it over in that order, with no copy
        import scipy.linalg

        eps = np.finfo(np.float64).eps
        seen = set()
        for k, cond in enumerate(_CONDS):
            a = _conditioned(*shape, cond, seed=k)
            if pivoted_qr(a).rank < shape[1]:
                continue
            q = require_tall_full_rank(a).q
            assert q.flags.f_contiguous, cond
            assert np.abs(q.T @ q - np.eye(shape[1])).max() <= 1e-14, cond
            factor = certified_cholesky(a)
            seen.add(factor is not None)
            if factor is not None:
                # CholeskyQR2 formed row-major, (S R^-1) R2^-1: the same q up to
                # the order of its sums (bit-equal on most shapes)
                old = factor.s @ factor.r_inv
                r2, _ = scipy.linalg.lapack.dpotrf(old.T @ old, lower=0, clean=1)
                r2_inv = scipy.linalg.lapack.dtrtri(r2, lower=0)[0]
                old = scipy.linalg.blas.dtrmm(1.0, r2_inv, old.T, side=0, lower=0, trans_a=1).T
                np.testing.assert_allclose(q, old, rtol=0, atol=4 * eps)
        assert seen == {True, False}

    @pytest.mark.parametrize("shape", _SHAPES, ids=["200x4", "2000x16"])
    def test_refused_full_rank_p2_oracle_row_by_row(self, shape):
        # past the certificate but below RANK_TOL, the oracle's p = 2 closed
        # form on itself gives the leverage scores, from W = V^T / sigma
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("no extended precision for the reference")
        eps = np.finfo(np.float64).eps
        seen = 0
        for k, cond in enumerate(_CONDS):
            a = _conditioned(*shape, cond, seed=k)
            if cond > 1e9 or certified_cholesky(a) is not None or pivoted_qr(a).rank < shape[1]:
                continue
            seen += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                vals = sensitivities_wrt(a, a, 2)
            # measured: <= 1.3 u cond
            np.testing.assert_allclose(vals, _extended_leverage(a), rtol=4 * eps * cond, atol=0)
        assert seen >= 7

    @pytest.mark.parametrize(
        "case", ["duplicated_column", "zero_column", "zero_rows", "wide", "square", "one_column"]
    )
    def test_structured_inputs_match_the_pivoted_qr(self, np_rng, case):
        a = np_rng.standard_normal((40, 4)) * np.exp(np_rng.uniform(-2, 2, 40))[:, None]
        if case == "duplicated_column":
            a[:, 3] = a[:, 1]
        elif case == "zero_column":
            a[:, 2] = 0.0
        elif case == "zero_rows":
            a[[0, 7, 39]] = 0.0
        elif case == "wide":
            a = a[:3]
        elif case == "square":
            a = a[:4]
        elif case == "one_column":
            a = a[:, :1]
        full = case in ("zero_rows", "square", "one_column")
        assert (certified_cholesky(a) is not None) == full
        assert matrix_rank(a) == FactoredMatrix.of(a).w.shape[1] == pivoted_qr(a).rank
        assert _gate_outcome(a) == _pivoted_outcome(a)
        if full:
            q = pivoted_qr(a).q
            np.testing.assert_allclose(
                leverage_exact(a).values, np.einsum("ij,ij->i", q, q), rtol=1e-12, atol=1e-15
            )

    @pytest.mark.parametrize("k", [900, -560, -900])
    def test_power_of_two_scales_are_certified_and_keep_every_bit(self, np_rng, k):
        a = np_rng.standard_normal((300, 5)) * np.exp(np_rng.uniform(-2, 2, 300))[:, None]
        scaled = np.ldexp(a, k)
        assert certified_cholesky(scaled) is not None
        assert matrix_rank(scaled) == 5
        np.testing.assert_array_equal(leverage_exact(scaled).values, leverage_exact(a).values)
        np.testing.assert_array_equal(require_tall_full_rank(scaled).q, require_tall_full_rank(a).q)
        # a rank-deficient A is refused at every scale and decided by the QR
        a[:, 4] = a[:, 0]
        assert certified_cholesky(np.ldexp(a, k)) is None
        assert _gate_outcome(np.ldexp(a, k)) == _pivoted_outcome(np.ldexp(a, k)) is not None


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

    def test_other_keys_rejected(self):
        with pytest.raises(TypeError, match="stream key must be int or str"):
            RandomSource(1).child(1.5)


class TestWeightVector:
    def test_validation(self):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="kind must be one of"):
            WeightVector(values=ones, kind="lewsi", p=1.5)
        with pytest.raises(ValueError, match="kind 'lewis' requires p"):
            WeightVector(values=ones, kind="lewis")
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            WeightVector(values=np.array([0.5, -0.5, 1.0]), kind="leverage")

    def test_total_and_len(self):
        w = WeightVector(values=np.array([0.25, 0.75, 0.5]), kind="leverage", p=2.0)
        assert len(w) == 3
        assert w.total == pytest.approx(1.5)
