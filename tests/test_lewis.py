import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import factorization_shapes, leverage_svd_oracle, random_tall
from lpsens.core import NonConvergenceError, require_tall_full_rank
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


def allocating_lewis_weights(a, p, branches):
    """Reference: the fixed-point loop with a fresh array for every product.

    The same operations in the same order as ``lewis_weights``, which writes
    them into per-call buffers instead, so the two agree bit for bit.  Adds
    to ``branches`` the names of the Anderson branches the call took.
    """
    import scipy.linalg

    from lpsens.lewis import _DEPTH, _FLOOR, _MAX_ITERS, _TOL

    a, q = require_tall_full_rank(a)
    live = np.any(a != 0.0, axis=1)
    if not live.all():
        q = q[live]
    weights = np.zeros(a.shape[0])
    lev = np.maximum(np.einsum("ij,ij->i", q, q), _FLOOR)
    n, d = q.shape
    expo, beta, eye = 0.5 - 1.0 / p, LewisConfig(p=p).beta, np.eye(d)
    df, dg = np.empty((n, _DEPTH)), np.empty((n, _DEPTH))
    kept = 0
    f_prev = g_prev = None
    x = (0.5 * p) * np.log(lev)
    w = np.exp(x - np.max(x))
    w = np.clip(w * (d / np.sum(w)), _FLOOR, 1.0)
    prev_residual = np.inf
    for _ in range(_MAX_ITERS):
        w = np.maximum(w, _FLOOR)
        # Fortran-ordered, as the library's buffer is, since the Gram's bits may
        # depend on the memory order
        y = np.asfortranarray(q * (w**expo)[:, None])
        chol = scipy.linalg.cholesky(y.T @ y, lower=True, check_finite=False)
        linv = scipy.linalg.solve_triangular(chol, eye, lower=True, check_finite=False)
        z = scipy.linalg.blas.dtrmm(1.0, linv, y, side=1, lower=1, trans_a=1)
        tau = np.maximum(np.einsum("ij,ij->i", z, z), _FLOOR)
        residual = float(np.max(np.abs(w - tau) / w))
        if residual <= _TOL:
            weights[live] = w
            return weights
        x = np.log(w)
        g = (1.0 - beta) * x + beta * np.log(tau)
        f = g - x
        if residual > prev_residual:
            branches.add("restart")
            kept = 0
        elif f_prev is not None:
            df[:, kept % _DEPTH] = f - f_prev
            dg[:, kept % _DEPTH] = g - g_prev
            kept += 1
        f_prev, g_prev, prev_residual = f, g, residual
        step = g
        if kept:
            h = min(kept, _DEPTH)
            try:
                gamma = np.linalg.solve(df[:, :h].T @ df[:, :h], df[:, :h].T @ f)
            except np.linalg.LinAlgError:
                gamma = np.full(h, np.nan)
            if np.all(np.isfinite(gamma)):
                step = np.clip(g - dg[:, :h] @ gamma, np.log(_FLOOR), 0.0)
            else:
                branches.add("singular")
                kept = 0
        w = np.exp(step)
    raise NonConvergenceError("reference did not converge", residual=residual)


class TestFixedPoint:
    def test_p2_equals_leverage(self, np_rng):
        a = random_tall(np_rng, 40, 4, scale_rows=True)
        np.testing.assert_allclose(
            lewis_weights(a, LewisConfig(p=2)).values,
            leverage_exact(a).values,
            atol=1e-8,
        )

    def test_p2_is_leverage_of_the_gate_q_without_iterating(self, np_rng):
        a = random_tall(np_rng, 50, 4, scale_rows=True)
        a[[3, 17, 40]] = 0.0
        gated = require_tall_full_rank(a)
        w = lewis_weights(gated, LewisConfig(p=2)).values
        np.testing.assert_allclose(w, leverage_exact(gated).values, rtol=0, atol=1e-13)
        assert np.all(w[[3, 17, 40]] == 0.0)

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
        # the damped map (beta = 1/2) has no contraction guarantee past p = 4;
        # Anderson mixing restarts from its plain step whenever the residual
        # grows, and inputs it cannot settle raise NonConvergenceError
        for p in (4, 7):
            a = random_tall(np_rng, 60, 5)
            total = lewis_weights(a, LewisConfig(p=p)).values.sum()
            assert total == pytest.approx(5.0, abs=1e-4)

    def test_very_large_p_converges_on_heavy_tailed_rows(self):
        # the plain damped map stalls here at residual ~9e-6 for all 200 iterations
        for s in range(3):
            g = np.random.default_rng(100 + s)
            a = g.standard_normal((200, 6)) * np.exp(g.uniform(-2, 2, 200))[:, None]
            u = np.linalg.svd(a, full_matrices=False)[0]
            for p in (16, 24):
                w = lewis_weights(a, LewisConfig(p=p)).values
                assert w.sum() == pytest.approx(6.0, abs=1e-4)
                scaled = u * np.maximum(w, 1e-12)[:, None] ** (0.5 - 1.0 / p)
                tau = np.maximum(leverage_svd_oracle(scaled), 1e-12)
                assert np.max(np.abs(w - tau) / np.maximum(w, 1e-12)) <= 1e-6

    def test_iteration_budget(self, monkeypatch):
        # one d x d Cholesky per iteration, none at p = 2 (its fixed point is
        # the leverage scores); the plain damped map needs 21, 11, 16, 74 and
        # 119 of them at the other p here, and the uniform start d/n took 6,
        # 8 and 18 at p = 1.5, 3 and 5 where the start lev^(p/2) takes 4, 6
        # and 14
        import scipy.linalg

        g = np.random.default_rng(2000)
        a = g.standard_normal((2000, 8)) * np.exp(g.uniform(-2, 2, 2000))[:, None]
        cholesky, calls = scipy.linalg.cholesky, []

        def counting_cholesky(x, *args, **kwargs):
            calls.append(np.shape(x))
            return cholesky(x, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky", counting_cholesky)
        used = {}
        for p in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
            calls.clear()
            lewis_weights(a, LewisConfig(p=p))
            used[p] = len(calls)
        assert used[2.0] == 0
        assert used[1.0] <= 10 and used[1.5] <= 5 and used[3.0] <= 7, used
        assert used[5.0] <= 17 and used[8.0] <= 32, used

    @pytest.mark.parametrize("scale_rows", [False, True], ids=["flat", "row_scaled"])
    def test_start_is_finite_and_in_range(self, scale_rows, monkeypatch):
        # lev^(p/2) itself underflows to all zeros at large p when every
        # leverage score is near d/n = 1e-4; with _TOL = inf the call returns
        # its start after one iteration
        import scipy.linalg

        import lpsens.lewis as lewis

        g = np.random.default_rng(4000)
        a = g.standard_normal((20000, 2))
        if scale_rows:
            a *= np.exp(g.uniform(-2, 2, 20000))[:, None]
        gated = require_tall_full_rank(a)
        lev = np.maximum(np.einsum("ij,ij->i", gated.q, gated.q), 1e-12)
        assert lev.max() < 1.0
        cholesky, calls = scipy.linalg.cholesky, []

        def counting_cholesky(x, *args, **kwargs):
            calls.append(np.shape(x))
            return cholesky(x, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky", counting_cholesky)
        np.testing.assert_array_equal(lewis_weights(gated, LewisConfig(p=2)).values, lev)
        assert calls == []
        monkeypatch.setattr(lewis, "_TOL", np.inf)
        monkeypatch.setattr(lewis, "_MAX_ITERS", 1)
        for p in (1.0, 1.5, 3.0, 24.0, 400.0):
            w = lewis_weights(gated, LewisConfig(p=p)).values
            assert np.all(np.isfinite(w)) and np.all((w >= 1e-12) & (w <= 1.0)), p
            assert w.max() > 1e-12, p

    def test_singular_mixing_falls_back_to_the_plain_step(self, np_rng, monkeypatch):
        a = random_tall(np_rng, 60, 4, scale_rows=True)
        mixed = {p: lewis_weights(a, LewisConfig(p=p)).values for p in (1.0, 3.0, 5.0)}

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        for p, w in mixed.items():
            np.testing.assert_allclose(lewis_weights(a, LewisConfig(p=p)).values, w, rtol=1e-5)

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

    def test_zero_rows_reuse_the_gate_qr(self, np_rng, monkeypatch):
        # one factorization, the gate's, even with zero rows dropped from q
        a = random_tall(np_rng, 60, 4, scale_rows=True)
        a[[5, 17]] = 0.0
        seen = factorization_shapes(monkeypatch, lambda: lewis_weights(a, LewisConfig(p=1.5)))
        assert seen == [("cholesky", a.shape)]
        w = lewis_weights(a, LewisConfig(p=1.5)).values
        assert w[5] == 0.0 and w[17] == 0.0 and w.sum() == pytest.approx(4.0, abs=1e-5)

    def test_power_of_two_scale_keeps_the_weights(self, np_rng):
        # a norm of a row of 2^-560 A underflows to 0; the row is still live
        a = random_tall(np_rng, 50, 3, scale_rows=True)
        for p in (1.0, 1.5, 3.0):
            np.testing.assert_allclose(
                lewis_weights(2.0**-560 * a, LewisConfig(p=p)).values,
                lewis_weights(a, LewisConfig(p=p)).values,
                rtol=1e-12,
            )

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


class TestPerCallBuffers:
    """The iteration writes sQ and then (sQ) L^-T into one n x d buffer each
    call allocates once; the allocating loop gives the same bits."""

    PS = (1.0, 1.5, 3.0, 5.0, 16.0, 24.0)

    @staticmethod
    def make_input(case):
        rng = np.random.default_rng(7)
        if case == "refused":
            # cond ~ 1e7: past the Gram's Cholesky certificate, so q is the
            # pivoted QR's, Fortran-ordered
            u = np.linalg.qr(rng.standard_normal((300, 5)))[0]
            v = np.linalg.qr(rng.standard_normal((5, 5)))[0]
            a = (u * np.logspace(0, -7, 5)) @ v.T
            assert require_tall_full_rank(a).q.flags.f_contiguous
            return a
        a = random_tall(rng, 300, 5, scale_rows=True)
        if case == "zero_rows":
            a[[3, 100, 299]] = 0.0
        return a

    @pytest.mark.parametrize("case", ["certified", "refused", "zero_rows"])
    def test_same_bits_as_the_allocating_loop(self, case):
        a = self.make_input(case)
        branches = set()
        for p in self.PS:
            ref = allocating_lewis_weights(a, p, branches)
            np.testing.assert_array_equal(lewis_weights(a, LewisConfig(p=p)).values, ref)
        assert "restart" in branches  # p = 16 and 24 lose ground

    def test_same_bits_when_every_other_mixing_system_is_singular(self, monkeypatch):
        # the monkeypatch of test_singular_mixing_falls_back_to_the_plain_step,
        # on alternate calls: the restart and the singular branches both run
        solve = np.linalg.solve
        a = self.make_input("certified")

        def run(call):
            calls = itertools.count(1)

            def flaky(*args, **kwargs):
                if next(calls) % 2 == 0:
                    raise np.linalg.LinAlgError("singular matrix")
                return solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, "solve", flaky)
            return call()

        branches = set()
        for p in self.PS:
            ref = run(lambda: allocating_lewis_weights(a, p, branches))
            got = run(lambda: lewis_weights(a, LewisConfig(p=p)).values)
            np.testing.assert_array_equal(got, ref)
        assert branches == {"restart", "singular"}

    def test_working_memory_of_a_gated_call(self):
        # a fresh sQ and (sQ) L^-T every iteration peak near 3.9 n d 8 bytes,
        # separate sQ and (sQ) L^-T buffers near 3.1, and one Fortran-ordered
        # buffer that BLAS overwrites with (sQ) L^-T near 2.1; this bound
        # fails if dtrmm copies it
        g = np.random.default_rng(20)
        a = g.standard_normal((20000, 16)) * np.exp(g.uniform(-2, 2, 20000))[:, None]
        gated = require_tall_full_rank(a)
        tracemalloc.start()
        try:
            lewis_weights(gated, LewisConfig(p=1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * a.nbytes, peak / a.nbytes


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

        monkeypatch.setattr(lewis, "_MAX_ITERS", 3)
        monkeypatch.setattr(lewis, "_TOL", 1e-12)
        a = random_tall(np_rng, 40, 4, scale_rows=True)
        with pytest.raises(NonConvergenceError) as exc:
            lewis_weights(a, LewisConfig(p=1.5))
        assert exc.value.residual > 0
        assert "p = 1.5 " in str(exc.value) and " 3 iterations" in str(exc.value)
