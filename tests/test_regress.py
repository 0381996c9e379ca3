import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    min_l1_on_hyperplane_linprog,
    min_lp_on_hyperplane_scipy,
    random_tall,
    sensitivity_grid_2d,
)
from lpsens.core import (
    FactoredMatrix,
    NonConvergenceError,
    certified_cholesky,
    matrix_rank,
    top_exponent,
)
from lpsens.reduce import default_anchor_scale
from lpsens.regress import (
    _bracket,
    _eliminate_hyperplanes,
    _min_lp_irls,
    min_lp_on_hyperplane,
    sensitivities_exact,
    sensitivities_wrt,
    sensitivity_one,
)

OUTSIDE_PS = [1.0, 1.01, 1.05, 1.1, 1.5, 2.0, 3.0]


class TestHyperplaneMinimization:
    def test_one_dimension_closed_form(self):
        # d = 1: x is forced to 1/a, objective sum |b_j|^p / |a|^p
        b = np.array([[2.0], [-1.0], [0.5]])
        a = np.array([4.0])
        for p in (1.0, 1.7, 2.0, 3.0):
            sol = min_lp_on_hyperplane(b, a, p)
            expected = np.sum(np.abs(b[:, 0] / 4.0) ** p)
            assert sol.value == pytest.approx(expected, rel=1e-12)
            assert sol.x_opt[0] == pytest.approx(0.25, rel=1e-12)

    def test_l1_matches_scipy_lp(self, np_rng):
        for _ in range(25):
            m = int(np_rng.integers(4, 40))
            d = int(np_rng.integers(2, 5))
            b = random_tall(np_rng, m, d, scale_rows=True)
            a = np_rng.standard_normal(d)
            ref_val, _ = min_l1_on_hyperplane_linprog(b, a)
            sol = min_lp_on_hyperplane(b, a, 1)
            assert sol.value == pytest.approx(ref_val, abs=1e-7 * (1 + ref_val))
            assert a @ sol.x_opt == pytest.approx(1.0, abs=1e-8)

    def test_l2_matches_closed_form(self, np_rng):
        for _ in range(10):
            b = random_tall(np_rng, 20, 3)
            a = np_rng.standard_normal(3)
            g_inv = np.linalg.inv(b.T @ b)
            expected = 1.0 / (a @ g_inv @ a)
            sol = min_lp_on_hyperplane(b, a, 2)
            assert sol.value == pytest.approx(expected, rel=1e-9)

    def test_smooth_p_matches_scipy_minimize(self, np_rng):
        for p in (1.5, 2.5, 3.0):
            b = random_tall(np_rng, 15, 3)
            a = np_rng.standard_normal(3)
            ref_val, _ = min_lp_on_hyperplane_scipy(b, a, p)
            sol = min_lp_on_hyperplane(b, a, p)
            assert sol.value == pytest.approx(ref_val, rel=2e-6)

    @pytest.mark.parametrize("p", [0.5, np.inf, np.nan])
    def test_p_below_one_or_non_finite_rejected(self, np_rng, p):
        b = random_tall(np_rng, 10, 2)
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            min_lp_on_hyperplane(b, np.ones(2), p)
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            sensitivities_wrt(b[:3], b, p)


class TestSensitivities:
    def test_grid_oracle_d2(self, np_rng):
        a = random_tall(np_rng, 12, 2, scale_rows=True)
        for p in (1.0, 1.5, 2.0, 3.0):
            vals = sensitivities_exact(a, p).values
            for i in (0, 3, 7):
                ref = sensitivity_grid_2d(a, i, p)
                # the grid resolution limits agreement, not the solver
                assert vals[i] == pytest.approx(ref, rel=5e-5)

    def test_values_in_unit_interval_and_total_bounded(self, np_rng):
        for p in (1.0, 1.5, 2.0, 2.5, 3.0):
            a = random_tall(np_rng, 25, 3, scale_rows=True)
            vals = sensitivities_exact(a, p).values
            assert np.all(vals >= 0) and np.all(vals <= 1 + 1e-9)
            assert vals.sum() <= 3 ** max(1.0, p / 2.0) + 1e-6

    def test_p2_equals_leverage(self, np_rng):
        from lpsens.leverage import leverage_exact

        a = random_tall(np_rng, 30, 4)
        assert np.array_equal(sensitivities_exact(a, 2).values, leverage_exact(a).values)

    def test_scale_invariance_of_matrix(self, np_rng):
        a = random_tall(np_rng, 15, 2)
        v1 = sensitivities_exact(a, 1.5).values
        v2 = sensitivities_exact(10.0 * a, 1.5).values
        np.testing.assert_allclose(v1, v2, rtol=1e-8)

    def test_row_scale_power_law(self, np_rng):
        # sensitivity against a fixed reference scales as |c|^p
        b = random_tall(np_rng, 20, 3)
        row = np_rng.standard_normal(3)[None, :]
        for p in (1.0, 2.0, 2.5):
            s1 = sensitivities_wrt(row, b, p)[0]
            s3 = sensitivities_wrt(3.0 * row, b, p)[0]
            assert s3 == pytest.approx(3.0**p * s1, rel=1e-7)

    def test_appended_row_identity(self, np_rng):
        b = random_tall(np_rng, 18, 3)
        row = np_rng.standard_normal(3)[None, :]
        for p in (1.0, 2.0, 3.0):
            outside = sensitivities_wrt(row, b, p)[0]
            inside = sensitivities_wrt(row, np.vstack([b, row]), p)[0]
            assert inside == pytest.approx(1.0 / (1.0 + 1.0 / outside), rel=1e-8)

    @staticmethod
    def wide_scale_instance():
        # Student-t(2) rows scaled by 10^U(-6, 6) with a zero last column, and
        # five rows that all use that column: each lies outside the row space
        g = np.random.default_rng(1001)
        b = g.standard_t(2, (30, 4)) * 10 ** g.uniform(-6, 6, (30, 1))
        b[:, 3] = 0.0
        return b, g.standard_normal((5, 4))

    @pytest.mark.parametrize("p", OUTSIDE_PS)
    def test_zero_row_and_outside_rowspace(self, np_rng, p):
        b = np.zeros((6, 3))
        b[:, :2] = np_rng.standard_normal((6, 2))
        rows = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        vals = sensitivities_wrt(rows, b, p)
        assert vals[0] == 0.0
        assert np.isinf(vals[1])
        # B = 0 has an empty row-space basis: every nonzero row is outside
        assert np.all(np.isinf(sensitivities_wrt(np.eye(3), np.zeros((6, 3)), p)))
        # a decision read off the solved value ignores B's scale and gave row 3
        # a finite 3.55e11 at p = 1.01; the row space does not depend on p
        b, m = self.wide_scale_instance()
        assert np.all(np.isinf(sensitivities_wrt(m, b, p)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", OUTSIDE_PS)
    def test_hyperplane_outside_rowspace_is_a_null_vector(self, p):
        b, m = self.wide_scale_instance()
        for a in m:
            sol = min_lp_on_hyperplane(b, a, p)
            assert sol.value == 0.0 and math.copysign(1.0, sol.value) == 1.0
            assert sol.status == "optimal" and sol.iterations == 0
            assert a @ sol.x_opt == pytest.approx(1.0, abs=1e-12)
            bound = 1e-10 * np.abs(b).max() * np.abs(sol.x_opt).sum()
            assert np.abs(b @ sol.x_opt).max() <= bound

    @pytest.mark.parametrize("p", OUTSIDE_PS)
    def test_ill_conditioned_full_rank_keeps_every_row_inside(self, p):
        # cond(B) = 1e7: a projector formed as G B^T B errs by about
        # eps cond(B)^2 and put every row outside; an orthonormal basis does not
        g = np.random.default_rng(7)
        q1 = np.linalg.qr(g.standard_normal((40, 4)))[0]
        q2 = np.linalg.qr(g.standard_normal((4, 4)))[0]
        s = np.logspace(0, -7, 4)
        b = (q1 * s) @ q2
        rows = g.standard_normal((5, 4))
        vals = sensitivities_wrt(rows, b, p)
        assert np.all(np.isfinite(vals) & (vals > 0.0))
        if p == 2:  # a G a with G = q2^T diag(s^-2) q2
            np.testing.assert_allclose(vals, np.sum((rows @ q2.T / s) ** 2, axis=1), rtol=1e-6)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("s", [1e-8, 1e-9, 3e-10, 1.2e-10, 9e-11])
    def test_refused_full_rank_matches_its_well_conditioned_twin(self, s, p):
        # U diag(1, .5, .3, s) V^T has U's column space, so every sensitivity
        # is the twin's.  The gate accepts it as rank 4 down to s = 9e-11 and
        # the certificate refuses it; solved in B's own coordinates, rows came
        # back 22-97% off, or p = 1 raised NonConvergenceError
        g = np.random.default_rng(40)
        u = np.linalg.qr(g.standard_normal((60, 4)))[0]
        v = np.linalg.qr(g.standard_normal((4, 4)))[0]
        a = (u * [1.0, 0.5, 0.3, s]) @ v.T
        assert certified_cholesky(a) is None and matrix_rank(a) == 4
        got = sensitivities_exact(a, p).values
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, sensitivities_exact(u * [1.0, 0.5, 0.3, 1.0], p).values,
                                   rtol=1e-5, atol=0)

    def test_sensitivity_one_matches_batch(self, np_rng):
        b = random_tall(np_rng, 14, 3)
        row = np_rng.standard_normal(3)
        got = sensitivity_one(row, b, 1.5)
        batch = sensitivities_wrt(row[None, :], b, 1.5)[0]
        assert got == pytest.approx(batch, rel=1e-12)

    def test_duplicated_rows_halve_sensitivity(self, np_rng):
        # doubling a row doubles the denominator mass available against it
        a = random_tall(np_rng, 10, 2)
        base = sensitivities_exact(a, 2).values[0]
        doubled = np.vstack([a, a[0]])
        new = sensitivities_exact(doubled, 2).values[0]
        assert new == pytest.approx(base / (1.0 + base), rel=1e-9)


class TestEliminateHyperplanes:
    @pytest.mark.parametrize("K, d", [(1, 2), (1, 5), (1, 17), (7, 2), (7, 5), (7, 17)])
    def test_same_bits_as_one_expression(self, np_rng, K, d):
        # the elimination gathers rows of a contiguous B^T; the one expression
        # gathers B's strided columns
        b = random_tall(np_rng, 30, d, scale_rows=True)
        rows = np_rng.standard_normal((K, d))
        M, c, k, rest = _eliminate_hyperplanes(np.ascontiguousarray(b.T), rows)
        np.testing.assert_array_equal(c, b[:, k].T / rows[np.arange(K), k][:, None])
        a_rest = np.take_along_axis(rows, rest, axis=1)
        np.testing.assert_array_equal(M, b.T[rest] - a_rest[:, :, None] * c[:, None, :])

    def test_working_memory_near_the_stack(self):
        # the one-expression form puts two temporaries of M's size next to it
        g = np.random.default_rng(21)
        bt, rows = np.ascontiguousarray(g.standard_normal((3000, 16)).T), g.standard_normal((40, 16))
        tracemalloc.start()
        try:
            M = _eliminate_hyperplanes(bt, rows)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * M.nbytes, peak / M.nbytes


class TestFactoredMatrix:
    """A ``FactoredMatrix`` built outside the oracle, as the regression
    reduction builds one, gives the bits of the oracle's own factoring of B."""

    @staticmethod
    def factored(b):
        e = top_exponent(b)
        return FactoredMatrix.of(np.ldexp(b, -e), e)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("case", ["certified", "refused", "exponent_0"])
    def test_same_bits_as_the_matrix(self, p, case):
        g = np.random.default_rng(31)
        b = random_tall(g, 60, 4, scale_rows=True)
        if case == "refused":
            b[:, 3] = 2.0 * b[:, 1]  # rank 3: the V path, and rows outside get inf
        elif case == "exponent_0":
            b /= 2.0 * np.abs(b).max()  # largest |entry| 0.5: no rescale, no copy
            assert FactoredMatrix.of(b).s is b
        rows = g.standard_normal((9, 4))
        rows[4] = 0.0
        factored = self.factored(b)
        assert (factored.basis is not None) == (case == "refused")
        got = sensitivities_wrt(rows, factored, p)
        np.testing.assert_array_equal(got, sensitivities_wrt(rows, b, p))
        assert got[4] == 0.0 and np.isinf(got).any() == (case == "refused")


class TestBatchedIrls:
    """Every row's IRLS result is independent of the batch it is solved in."""

    @staticmethod
    def assert_batch_invariant(rows, b, p, rng, monkeypatch, per_row=None):
        """Alone, permuted and in 1-3-row chunks (``per_row`` stack entries
        per row; default: one eliminated IRLS matrix) a row gets the same bits."""
        import lpsens.regress as regress

        full = sensitivities_wrt(rows, b, p)
        alone = np.array([sensitivity_one(row, b, p) for row in rows])
        assert np.array_equal(full, alone)
        perm = rng.permutation(rows.shape[0])
        assert np.array_equal(sensitivities_wrt(rows[perm], b, p), full[perm])
        if per_row is None:
            per_row = b.shape[0] * (b.shape[1] - 1)
        for chunk_rows in (1, 2, 3):
            monkeypatch.setattr(regress, "_CHUNK_ELEMENTS", chunk_rows * per_row)
            assert np.array_equal(sensitivities_wrt(rows, b, p), full)
        return full

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_full_rank(self, np_rng, monkeypatch, p):
        b = random_tall(np_rng, 40, 4, scale_rows=True)
        rows = np_rng.standard_normal((11, 4))
        rows[4] = 0.0
        vals = self.assert_batch_invariant(rows, b, p, np_rng, monkeypatch)
        assert vals[4] == 0.0
        assert np.all(np.delete(vals, 4) > 0.0) and np.all(np.isfinite(vals))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_rank_deficient(self, np_rng, monkeypatch, p):
        # a zero column, or a dependent one b[:, 2] = b[:, :2] @ w, makes the
        # normal matrices of the rows singular in the coordinates of x.  Rows
        # [r, r @ w] lie in the row space and have the reduced problem's value;
        # the others lie outside.  The solve runs on the row space, so no
        # singular system falls back to least squares, and B is factored once,
        # by the pivoted QR whose rule decides its rank
        import scipy.linalg

        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        qr, qr_calls = scipy.linalg.qr, []

        def counting_qr(x, *args, **kwargs):
            qr_calls.append((np.shape(x), kwargs.get("pivoting", False)))
            return qr(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
        for w in (np.zeros(2), np_rng.standard_normal(2)):
            b = random_tall(np_rng, 30, 3, scale_rows=True)
            b[:, 2] = b[:, :2] @ w
            rows = np_rng.standard_normal((7, 3))
            rows[[0, 3, 5], 2] = rows[[0, 3, 5], :2] @ w
            rows[6] = 0.0
            vals = self.assert_batch_invariant(rows, b, p, np_rng, monkeypatch)
            reduced = sensitivities_wrt(rows[[0, 3, 5], :2], b[:, :2], p)
            np.testing.assert_allclose(vals[[0, 3, 5]], reduced, rtol=1e-8)
            assert np.all(np.isinf(vals[[1, 2, 4]]))
            assert vals[6] == 0.0
            qr_calls.clear()
            sensitivities_wrt(rows, b, p)
            assert qr_calls == [(b.shape, True)]

    def test_irls_reports_status_and_iterations(self, np_rng):
        b = random_tall(np_rng, 20, 3)
        sol = min_lp_on_hyperplane(b, np_rng.standard_normal(3), 1.5)
        assert sol.status == "optimal" and 0 < sol.iterations < 9 * 60

    def test_irls_reports_iteration_limit(self, monkeypatch):
        import lpsens.regress as regress

        # a seeded instance near p = 1: the smoothed minimum moves with every delta
        g = np.random.default_rng(20)
        b = g.standard_normal((20, 3)) * np.exp(g.uniform(-1.5, 1.5, 20))[:, None]
        a = g.standard_normal(3)
        ref = min_lp_on_hyperplane(b, a, 1.01)
        assert ref.status == "optimal"
        stages = len(regress._DELTAS)
        monkeypatch.setattr(regress, "_MAX_INNER", 1)
        sol = min_lp_on_hyperplane(b, a, 1.01)
        assert sol.status == "iteration_limit"
        assert sol.iterations == stages
        assert sol.value >= ref.value
        # with two steps a stage before the last may finish after one on its
        # loose tolerance; the last runs both and does not finish.  Every step
        # the row does not finish on is followed by one call of the derivatives
        last, derivatives = regress._DELTAS[-1], regress._smoothed_derivatives
        last_stage = []

        def spy(r, d2, p, t):
            last_stage.append(d2 == last * last)
            return derivatives(r, d2, p, t)

        monkeypatch.setattr(regress, "_MAX_INNER", 2)
        monkeypatch.setattr(regress, "_smoothed_derivatives", spy)
        sol = min_lp_on_hyperplane(b, a, 1.01)
        assert sol.status == "iteration_limit"
        assert stages + 1 <= sol.iterations <= 2 * stages
        assert sum(last_stage) == 1 + 2  # the stage's start, then each of its two steps
        assert sol.value >= ref.value

    def test_iteration_limit_raises(self, np_rng, monkeypatch):
        import lpsens.regress as regress

        b = random_tall(np_rng, 20, 3, scale_rows=True)
        monkeypatch.setattr(regress, "_MAX_INNER", 1)  # too few steps near p = 1
        with pytest.raises(NonConvergenceError, match="on 20 of 20 rows at p = 1.01"):
            sensitivities_wrt(b, b, 1.01)
        with pytest.raises(NonConvergenceError):
            sensitivities_exact(b, 1.01)

    @staticmethod
    def heavy_tailed(seed):
        g = np.random.default_rng(seed)
        return g.standard_normal((128, 4)) * np.exp(g.uniform(-1.5, 1.5, 128))[:, None]

    @pytest.mark.parametrize("p, rtol", [(1.01, 1e-10), (1.5, 2e-12), (3.0, 2e-12)])
    def test_loose_stages_keep_the_values(self, monkeypatch, p, rtol):
        # only the last delta's point is scored: ending the earlier stages at
        # min(1e-6, delta^1.5) saves Newton steps, moves no value at p = 1.5
        # or 3 past the bracket's 1e-12 and, at p = 1.01, none past the last
        # stage's own 1e-11 by much.  A flat 1e-6 there left 8 of these rows at
        # the iteration limit and others 2e-9 off
        import lpsens.regress as regress

        b = self.heavy_tailed(27)
        _, value, converged, iterations = regress._minimize(b, b, p)
        monkeypatch.setattr(regress, "_STAGE_RTOL", 1e-11)
        _, tight, tight_converged, tight_iterations = regress._minimize(b, b, p)
        assert converged.all() and tight_converged.all()
        np.testing.assert_allclose(value, tight, rtol=rtol)
        assert iterations.sum() < tight_iterations.sum()

    def test_p1_ignores_the_stage_tolerance(self, monkeypatch):
        # at p = 1 every stage keeps 1e-11: the tight stages lead the crossover
        import lpsens.regress as regress

        b = self.heavy_tailed(28)
        want = regress._minimize(b, b, 1)
        for rtol in (1e-3, 1e-11):
            monkeypatch.setattr(regress, "_STAGE_RTOL", rtol)
            for got, ref in zip(regress._minimize(b, b, 1), want):
                assert got.tobytes() == ref.tobytes()

    def test_line_search_reads_no_residual(self, monkeypatch):
        # a halved step's residual is the midpoint of the old and the new one:
        # one residual product per Newton step (and one for the least-squares
        # start), however often the steps are halved
        import lpsens.regress as regress

        names = ("_residual", "_newton_step", "_smoothed", "_smoothed_derivatives", "_bracket")
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in names:
            monkeypatch.setattr(regress, name, counting(name, getattr(regress, name)))
        b = self.heavy_tailed(29)
        assert regress._minimize(b, b, 1.5)[2].all()
        assert calls["_residual"] == calls["_newton_step"]
        # each stage evaluates the objective once at its start, once per step
        # and once per round of halvings, and the derivatives once at its start
        # and after every step but one that finishes it: the rest are halvings
        stages = calls["_bracket"] + 1
        assert calls["_smoothed"] - calls["_smoothed_derivatives"] - stages > 0

    @staticmethod
    def polished_minimum(b, a, p, x, steps=8):
        """Newton's method on the unsmoothed sum |B x|^p over a @ x = 1, from x.

        x = a / |a|^2 + Q y with Q an orthonormal basis of a's null space.  A
        step that would raise the sum is halved (near p = 1 a full step
        overshoots the residuals close to 0), and the polish stops where no
        halving helps or a residual is exactly 0, where p < 2 has no Hessian."""
        q = np.linalg.qr(a[:, None], mode="complete")[0][:, 1:]
        x0 = a / (a @ a)
        bq, c = b @ q, b @ x0

        def objective(y):
            # an overshooting trial step may overflow at large p: inf is then
            # worse than any finite sum, and the step is halved
            with np.errstate(over="ignore"):
                return np.sum(np.abs(bq @ y + c) ** p)

        y = q.T @ (x - x0)
        for _ in range(steps):
            r = bq @ y + c
            if p < 2.0 and not np.all(r):
                break
            grad = bq.T @ (np.sign(r) * np.abs(r) ** (p - 1.0))
            hess = (p - 1.0) * (bq * (np.abs(r) ** (p - 2.0))[:, None]).T @ bq
            step, before = np.linalg.solve(hess, grad), objective(y)
            for _ in range(60):
                if objective(y - step) <= before:
                    break
                step *= 0.5
            else:
                break
            y = y - step
        return objective(y)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("p", [3.0, 5.0])
    def test_reaches_the_unsmoothed_minimum_on_heavy_tails(self, seed, p):
        # Student-t(2) entries with row scales exp(U(-2, 2)): at these seeds
        # plain reweighting stopped 5e-9..1e-8 short at p = 3 and ran out of
        # iterations on some row at p = 5
        g = np.random.default_rng(seed)
        b = g.standard_t(2, (120, 4)) * np.exp(g.uniform(-2.0, 2.0, 120))[:, None]
        x, value, converged, _ = _min_lp_irls(b, b, p)
        assert converged.all()
        ref = [self.polished_minimum(b, b[i], p, x[i]) for i in range(b.shape[0])]
        np.testing.assert_allclose(value, ref, rtol=1e-10)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_reduction_anchor_row_retires_on_its_bracket(self, p):
        # the regression reduction's [A -b; 0 -lam]: the anchor row is itself a
        # row of B, parallel to a, so no active set may take it.  Its bracket
        # closes while delta is still large, so the row never walks all the
        # smoothing stages (each takes at least one Newton step)
        import lpsens.regress as regress

        g = np.random.default_rng(3)
        a = g.standard_normal((300, 4)) * np.exp(g.uniform(-1.0, 1.0, 300))[:, None]
        b = a @ g.standard_normal(4) + g.standard_t(3, 300)
        aug = np.zeros((301, 5))
        aug[:300, :4], aug[:300, 4], aug[300, 4] = a, -b, -default_anchor_scale(a)
        sol = min_lp_on_hyperplane(aug, aug[300], p)
        assert sol.status == "optimal"
        assert sol.iterations < len(regress._DELTAS)
        ref = self.polished_minimum(aug, aug[300], p, sol.x_opt)
        assert sol.value == pytest.approx(ref, rel=1e-10)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 5),
        p=st.sampled_from([1.01, 1.5, 3.0, 8.0, 24.0]),
    )
    @example(seed=32526, d=4, p=24.0)  # overflowed the reference polish once
    def test_bracket_bounds_the_minimum(self, seed, d, p):
        # Student-t(2) entries with row scales exp(U(-2, 2)).  At the p = 2
        # minimizers (far from the minimum: at p = 1.01, q = 101 and a plain
        # |v_S|^q overflows) and at the IRLS result the bracket is finite and
        # holds the polished minimum, up to rounding where it closes; a bracket
        # that closes has the polished minimum as its hi
        import warnings

        g = np.random.default_rng(seed)
        n = int(g.integers(d + 3, 60))
        b = g.standard_t(2, (n, d)) * np.exp(g.uniform(-2.0, 2.0, n))[:, None]
        rows = g.permutation(n)[:4]
        shut = np.arange(n) == rows[:, None]  # a = B_i is parallel to B_i
        start = np.linalg.solve(b.T @ b, b[rows].T).T
        start /= np.sum(start * b[rows], axis=1)[:, None]
        x, value, converged, _ = _min_lp_irls(b, b[rows], p)
        ref = np.array([self.polished_minimum(b, b[i], p, x[k]) for k, i in enumerate(rows)])
        for point in (start, x):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lo, hi = _bracket(b, b[rows], point @ b.T, shut, p)
            assert np.all(np.isfinite(lo) & np.isfinite(hi) & (lo >= 0.0))
            assert np.all(lo <= ref * (1.0 + 1e-12))
            assert np.all(ref <= hi * (1.0 + 1e-12))
        closed = converged & (np.abs(hi - lo) <= 1e-12 * hi)
        np.testing.assert_allclose(hi[closed], ref[closed], rtol=1e-10)
        np.testing.assert_allclose(value[closed], ref[closed], rtol=1e-10)


class TestClosedFormP2:
    """p = 2 reads u = a W with W W^T the Gram pseudoinverse: W = R^-1 off the
    Cholesky factor on a certified B, with no SVD, and W = V^T / sigma from
    the SVD of the pivoted QR's R on a refused one."""

    @pytest.mark.parametrize("k", [0, 900, -900])
    def test_certified_factor_matches_the_refused_path(self, np_rng, monkeypatch, k):
        import lpsens.core as core

        # B and its rows at 2^k: the oracle rescales both before it factors
        b = np.ldexp(random_tall(np_rng, 60, 4, scale_rows=True), k)
        rows = np.ldexp(np_rng.standard_normal((9, 4)), k)

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD taken on a certified B")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        vals = sensitivities_wrt(rows, b, 2)
        sols = [min_lp_on_hyperplane(b, row, 2) for row in rows]
        monkeypatch.undo()
        # the refused path: W from the SVD of the pivoted QR's R
        monkeypatch.setattr(core, "certified_cholesky", lambda a: None)
        np.testing.assert_allclose(vals, sensitivities_wrt(rows, b, 2), rtol=1e-12, atol=0)
        for row, sol in zip(rows, sols):
            ref = min_lp_on_hyperplane(b, row, 2)
            assert sol.value == pytest.approx(ref.value, rel=1e-12)
            assert np.abs(sol.x_opt - ref.x_opt).max() <= 1e-12 * np.abs(ref.x_opt).max()
            assert row @ sol.x_opt == pytest.approx(1.0, rel=1e-12)


class TestBatchedLp:
    """p = 1: stacked Newton IRLS plus vertex crossovers, each row's bits its own."""

    @staticmethod
    def assert_batch_invariant(rows, b, monkeypatch, rng):
        # chunks hold one eliminated IRLS matrix, m (d - 1) entries, per row
        return TestBatchedIrls.assert_batch_invariant(rows, b, 1, rng, monkeypatch)

    def test_full_rank(self, np_rng, monkeypatch):
        b = random_tall(np_rng, 40, 4, scale_rows=True)
        rows = np_rng.standard_normal((11, 4))
        rows[4] = 0.0
        vals = self.assert_batch_invariant(rows, b, monkeypatch, np_rng)
        assert vals[4] == 0.0
        for i in np.delete(np.arange(11), 4):
            ref_val, _ = min_l1_on_hyperplane_linprog(b, rows[i])
            assert vals[i] == pytest.approx(1.0 / ref_val, rel=1e-7)

    def test_rank_deficient(self, np_rng, monkeypatch):
        # a zero column makes one dual constraint redundant for the rows that
        # avoid it; the rows that use it lie outside the row space
        b = random_tall(np_rng, 30, 3, scale_rows=True)
        b[:, 2] = 0.0
        rows = np_rng.standard_normal((7, 3))
        rows[[0, 3, 5], 2] = 0.0
        rows[6] = 0.0
        vals = self.assert_batch_invariant(rows, b, monkeypatch, np_rng)
        for i in (0, 3, 5):
            ref_val, _ = min_l1_on_hyperplane_linprog(b, rows[i])
            assert vals[i] == pytest.approx(1.0 / ref_val, rel=1e-7)
        assert np.all(np.isinf(vals[[1, 2, 4]]))
        assert vals[6] == 0.0

    def test_hyperplane_lp_is_the_one_row_case(self, np_rng):
        b = random_tall(np_rng, 25, 3, scale_rows=True)
        rows = np_rng.standard_normal((5, 3))
        vals = sensitivities_wrt(rows, b, 1)
        for row, val in zip(rows, vals):
            sol = min_lp_on_hyperplane(b, row, 1)
            assert 1.0 / sol.value == val
            assert sol.iterations > 0 and sol.status == "optimal"

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_one_column_closed_form(self, np_rng, p):
        b = random_tall(np_rng, 9, 1, scale_rows=True)
        rows = np_rng.standard_normal((6, 1))
        rows[2] = 0.0
        vals = sensitivities_wrt(rows, b, p)
        assert vals[2] == 0.0
        for i in (0, 1, 3, 4, 5):
            assert vals[i] == 1.0 / min_lp_on_hyperplane(b, rows[i], p).value

    def test_uncertified_rows_fall_back_to_highs(self, np_rng, monkeypatch):
        # with every vertex certificate rejected, each row is solved by HiGHS
        # alone: the values still match the reference, batch for batch
        import lpsens.regress as regress

        crossover, solve_lp = regress._crossover, regress.solve_lp

        def reject(B, A, key, cut, last):
            certified, x, value = crossover(B, A, key, cut, last)
            return np.zeros_like(certified), x, value

        monkeypatch.setattr(regress, "_crossover", reject)
        b = random_tall(np_rng, 30, 3, scale_rows=True)
        rows = np_rng.standard_normal((6, 3))
        vals = self.assert_batch_invariant(rows, b, monkeypatch, np_rng)
        fallback = []
        monkeypatch.setattr(regress, "solve_lp", lambda B, a: fallback.append(a) or solve_lp(B, a))
        assert np.array_equal(sensitivities_wrt(rows, b, 1), vals)
        assert len(fallback) == len(rows)
        for row, val in zip(rows, vals):
            ref_val, _ = min_l1_on_hyperplane_linprog(b, row)
            assert val == pytest.approx(1.0 / ref_val, rel=1e-9)

    @staticmethod
    def degenerate_matrix(name):
        g = np.random.default_rng(12)
        if name == "integer":  # vertices where more than d - 1 residuals vanish
            return g.integers(-3, 4, (150, 4)).astype(float)
        if name == "duplicated":  # the d - 1 smallest residuals repeat a row
            a = g.standard_normal((100, 6))
            return np.vstack([a, a])
        if name == "stacked_identity":
            return np.vstack([np.eye(4)] * 25)
        b = g.standard_normal((40, 4))  # zero column: every vertex of B is singular
        b[:, 2] = 0.0
        return b

    @pytest.mark.parametrize("name", ["integer", "duplicated", "stacked_identity", "zero_column"])
    def test_degenerate_inputs_match_highs(self, name):
        b = self.degenerate_matrix(name)
        vals = sensitivities_wrt(b, b, 1)
        n = b.shape[0] // 2 if name == "duplicated" else b.shape[0]
        if name == "duplicated":  # the second half repeats the first, bit for bit
            assert np.array_equal(vals[n:], vals[:n])
        for row, val in zip(b[:n], vals[:n]):
            if not row.any():  # the integer matrix has a zero row
                assert val == 0.0
                continue
            ref_val, _ = min_l1_on_hyperplane_linprog(b, row)
            assert val == pytest.approx(1.0 / ref_val, rel=1e-9)

    @pytest.mark.parametrize("name", ["duplicated", "integer"])
    def test_degenerate_rows_retire_inside_the_stacked_crossover(self, monkeypatch, name):
        # repeated rows and vertices where more than d - 1 residuals vanish:
        # the walked vertex and the zero-set dual certify every row inside the
        # delta loop, so none is left for HiGHS
        import lpsens.regress as regress

        b = self.degenerate_matrix(name)
        crossover, certified = regress._crossover, []

        def spy(B, A, key, cut, last):
            ok, x, value = crossover(B, A, key, cut, last)
            certified.append(np.count_nonzero(ok))
            return ok, x, value

        def no_highs(B, a):
            raise AssertionError("solve_lp called")

        monkeypatch.setattr(regress, "_crossover", spy)
        monkeypatch.setattr(regress, "solve_lp", no_highs)
        sensitivities_wrt(b, b, 1)
        assert sum(certified) == np.count_nonzero(np.any(b != 0.0, axis=1))

    @pytest.mark.parametrize("kind", ["integer", "gaussian"])
    def test_certificates_accept_only_optimal_vertices(self, np_rng, kind):
        # residuals of HiGHS's optimum, blurred by growing noise, point the
        # crossover at the optimal vertex and then at others: whatever vertex
        # it certifies must carry the LP optimum.  Its walked vertex with the
        # zero-set dual, run on every row, must hold to the same rule
        import lpsens.regress as regress

        b = np_rng.integers(-3, 4, (30, 3)).astype(float)
        if kind == "gaussian":
            b = random_tall(np_rng, 30, 3, scale_rows=True)
        rows = np_rng.standard_normal((8, 3))
        cut = regress._CERT_TOL * np.linalg.norm(b, axis=1)
        opt = [min_l1_on_hyperplane_linprog(b, a) for a in rows]
        ref = np.array([value for value, _ in opt])
        res = np.array([b @ x for _, x in opt])
        accepted = 0
        for noise in (0.0, 1e-3, 1e-1, 1.0, 10.0):
            r = res + noise * np.abs(res).mean() * np_rng.standard_normal(res.shape)
            certified, _, value = regress._crossover(b, rows, np.abs(r), cut, True)
            np.testing.assert_allclose(value[certified], ref[certified], rtol=1e-9)
            S, found = regress._independent_rows(b, rows, np.abs(r), cut)
            _, _, x, res_x, value = regress._vertex(b, rows, S)
            zero = np.abs(res_x) <= np.linalg.norm(x, axis=1)[:, None] * cut
            np.put_along_axis(zero, S, True, axis=1)
            certified = found & regress._zero_set_dual(b, rows, res_x, value, zero)
            np.testing.assert_allclose(value[certified], ref[certified], rtol=1e-9)
            accepted += np.count_nonzero(certified)
        assert accepted >= len(rows)  # at least the noiseless pass certifies

    @pytest.mark.parametrize("shape", ["heavy_tailed_112x4", "gaussian_300x8"])
    def test_crossover_certifies_every_row(self, monkeypatch, shape):
        import lpsens.regress as regress

        g = np.random.default_rng(3)
        if shape == "heavy_tailed_112x4":  # the benchmark's lp1 generator
            b = g.standard_normal((112, 4)) * np.exp(g.uniform(-1.5, 1.5, 112))[:, None]
        else:
            b = g.standard_normal((300, 8))
        fallback, solve_lp = [], regress.solve_lp
        monkeypatch.setattr(regress, "solve_lp", lambda B, a: fallback.append(a) or solve_lp(B, a))
        vals = sensitivities_exact(b, 1).values
        assert fallback == []
        assert np.all((vals > 0.0) & (vals <= 1.0)) and vals.sum() <= b.shape[1]


def test_import_leaves_scipy_optimize_unloaded():
    # HiGHS (scipy.optimize) is imported only when a p = 1 row needs it;
    # loading it with the package makes every start-up slower
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lpsens

    env = dict(os.environ, PYTHONPATH=str(Path(lpsens.__file__).resolve().parents[1]))
    code = "import sys, lpsens; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
