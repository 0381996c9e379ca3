import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import certificate_bindings, random_tall, regression_direct
from lpsens.core import RankDeficientError
from lpsens.reduce import (
    default_anchor_scale,
    leave_one_out_multiregression,
    regression_via_sensitivity,
)
from lpsens.regress import sensitivities_wrt


class TestRegressionReduction:
    def test_two_point_scalar_example(self):
        # min_y |y - 1| + |y| = 1, reachable by the reduction with any lam
        a = np.array([[1.0], [1.0]])
        b = np.array([1.0, 0.0])
        assert regression_via_sensitivity(a, b, 1, lam=1.0) == pytest.approx(1.0, abs=1e-9)

    def test_consistent_system_gives_zero(self, np_rng):
        a = random_tall(np_rng, 12, 3)
        y0 = np_rng.standard_normal(3)
        for p in (1.0, 2.0, 3.0):
            got = regression_via_sensitivity(a, a @ y0, p, lam=1.0)
            assert got == pytest.approx(0.0, abs=1e-8)

    def test_p2_matches_projection_residual(self, np_rng):
        a = random_tall(np_rng, 20, 3)
        b = np_rng.standard_normal(20)
        y, *_ = np.linalg.lstsq(a, b, rcond=None)
        opt = float(np.sum((a @ y - b) ** 2))
        got = regression_via_sensitivity(a, b, 2, lam=1.0)
        assert got == pytest.approx(opt, abs=1e-6 * (1 + opt))

    def test_identity_across_p_and_lambda(self, np_rng):
        a = random_tall(np_rng, 15, 3)
        b = np_rng.standard_normal(15)
        for p in (1.0, 1.5, 2.0, 3.0):
            opt, _ = regression_direct(a, b, p)
            for lam in (0.05, 1.0, 20.0):
                got = regression_via_sensitivity(a, b, p, lam=lam)
                assert got == pytest.approx(opt, abs=2e-6 * (1 + opt))

    def test_default_lambda_used_when_omitted(self, np_rng):
        a = random_tall(np_rng, 10, 2)
        b = np_rng.standard_normal(10)
        got = regression_via_sensitivity(a, b, 2)
        opt, _ = regression_direct(a, b, 2)
        assert got == pytest.approx(opt, abs=1e-6 * (1 + opt))
        assert default_anchor_scale(a) > 0

    def test_validation(self, np_rng):
        a = random_tall(np_rng, 10, 2)
        b = np_rng.standard_normal(10)
        with pytest.raises(ValueError):
            regression_via_sensitivity(a, b[:5], 1)
        for p in (0.5, np.inf, np.nan):
            with pytest.raises(ValueError):
                regression_via_sensitivity(a, b, p)
        with pytest.raises(ValueError):
            regression_via_sensitivity(a, b, 1, lam=0.0)
        # a zero A: its default lam is 0 too, and the rank error comes first
        with pytest.raises(RankDeficientError):
            regression_via_sensitivity(np.zeros((10, 2)), b, 1)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_consistent_system_at_a_tiny_lambda_costs_zero(self, monkeypatch, p):
        # b = A y and lam = 1e-9: the SVD cut calls [A -b; 0 -lam] rank
        # deficient, the anchor row lies outside its row space (sensitivity
        # inf) and the cost is 0, not -lam^p.  A is certified, the augmented
        # matrix is not, so A's rank comes from the gate
        import lpsens.reduce as reduce

        g = np.random.default_rng(0)
        a = g.standard_normal((20000, 8))
        b = a @ g.standard_normal(8)
        gate, gated = reduce.require_tall_full_rank, []
        monkeypatch.setattr(
            reduce, "require_tall_full_rank", lambda x: gated.append(x.shape) or gate(x)
        )
        assert regression_via_sensitivity(a, b, p, lam=1e-9) == 0.0
        assert gated == [a.shape]
        # the default lam: the rounding once left -1.8e-19 at p = 2
        assert regression_via_sensitivity(a, b, p) >= 0.0


class TestOneFactorization:
    """The regression factors its augmented matrix once, and the oracle
    solves against that factor."""

    @staticmethod
    def instance():
        g = np.random.default_rng(5)
        a = g.standard_normal((20000, 16)) * np.exp(g.uniform(-2.0, 2.0, 20000))[:, None]
        return a, g.standard_normal(20000)

    def test_one_certificate_per_call(self, monkeypatch):
        import lpsens.core as core

        certify, shapes = core.certified_cholesky, []

        def counting(x):
            shapes.append(x.shape)
            return certify(x)

        for module in certificate_bindings():
            monkeypatch.setattr(module, "certified_cholesky", counting)
        a, b = self.instance()
        regression_via_sensitivity(a, b, 1.5)
        assert shapes == [(20001, 17)]

    def test_working_memory(self):
        # the augmented matrix is built already scaled, B^T is dropped once the
        # hyperplane is eliminated, and the Newton steps write one buffer:
        # about 3.5 copies of [A -b; 0 -lam] at the peak, where building it
        # unscaled and rescaling a copy, with a fresh M diag(phi'') per Newton
        # step, took 4.4
        a, b = self.instance()
        regression_via_sensitivity(a[:100], b[:100], 1.5)  # imports and caches outside the count
        tracemalloc.start()
        try:
            regression_via_sensitivity(a, b, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * 20001 * 17 * 8, peak / (20001 * 17 * 8)


class TestLeaveOneOut:
    def test_identity_matrix_bracket(self):
        vals = leave_one_out_multiregression(np.eye(4), 2, lam=1.0)
        assert np.all(vals >= 1.0 - 1e-9)
        assert np.all(vals <= 2.0 + 1e-9)

    def test_duplicated_column_detected(self, np_rng):
        a = random_tall(np_rng, 10, 3)
        a = np.column_stack([a, a[:, 0]])
        vals = leave_one_out_multiregression(a, 2, lam=0.1)
        assert vals[-1] <= 0.1**2 * 2 + 1e-9

    def test_bracket_against_lp_oracle(self, np_rng):
        a = random_tall(np_rng, 15, 3)
        lam = 0.05
        got = leave_one_out_multiregression(a, 1, lam=lam)
        for i in range(3):
            rest = np.delete(a, i, axis=1)
            col = a[:, i]
            m, k = rest.shape
            c = np.concatenate([np.zeros(k), np.ones(m)])
            a_ub = np.block([[rest, -np.eye(m)], [-rest, -np.eye(m)]])
            b_ub = np.concatenate([-col, col])
            res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                          bounds=[(None, None)] * (k + m), method="highs")
            opt = res.fun
            upper = opt + lam * (1 + np.abs(res.x[:k]).sum())
            assert opt - 1e-8 <= got[i] <= upper + 1e-8

    def test_monotone_toward_opt_as_lambda_shrinks(self, np_rng):
        a = random_tall(np_rng, 12, 3)
        lams = [0.5, 0.2, 0.1, 0.02]
        seq = [leave_one_out_multiregression(a, 1, lam=l) for l in lams]
        for earlier, later in zip(seq, seq[1:]):
            assert np.all(later <= earlier + 1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("scale", [1.0, 2.0**-40, 3.0e9])
    def test_prescaled_matrix_keeps_the_bits(self, np_rng, p, scale):
        # [A; lam I] built already scaled gives the values of the plain one
        a = scale * random_tall(np_rng, 40, 4, scale_rows=True)
        lam = default_anchor_scale(a)
        augmented = np.vstack([a, lam * np.eye(4)])
        want = lam**p / sensitivities_wrt(augmented[40:], augmented, p)
        got = leave_one_out_multiregression(a, p)
        assert got.tobytes() == want.tobytes()

    def test_output_length_is_d(self, np_rng):
        a = random_tall(np_rng, 20, 4)
        assert leave_one_out_multiregression(a, 1.5).shape == (4,)
