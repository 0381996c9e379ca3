import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import min_l1_on_hyperplane_linprog, random_tall
from lpsens.core import NonConvergenceError
from lpsens.simplex import InfeasibleError, UnboundedError, solve_lp, solve_lp_stack


def random_instance(rng, m, n):
    a = rng.standard_normal((m, n))
    x_feas = rng.uniform(0.2, 1.0, size=n)
    b = a @ x_feas
    c = rng.standard_normal(n)
    ub = np.where(rng.random(n) < 0.5, rng.uniform(1.5, 4.0, size=n), np.inf)
    return a, b, c, ub


class TestAgainstScipy:
    def test_fuzz_values_match_highs(self, np_rng):
        mismatches = 0
        for trial in range(60):
            m = int(np_rng.integers(1, 7))
            n = int(np_rng.integers(m, m + 7))
            a, b, c, ub = random_instance(np_rng, m, n)
            ref = linprog(c, A_eq=a, b_eq=b,
                          bounds=[(0, u if np.isfinite(u) else None) for u in ub],
                          method="highs")
            try:
                res = solve_lp(c, a, b, ub)
            except InfeasibleError:
                assert ref.status == 2
                continue
            except UnboundedError:
                assert ref.status == 3
                continue
            assert ref.status == 0
            scale = 1.0 + abs(ref.fun)
            if abs(res.value - ref.fun) > 1e-7 * scale:
                mismatches += 1
            np.testing.assert_allclose(a @ res.x, b, atol=1e-8)
            assert np.all(res.x >= -1e-9)
            assert np.all(res.x <= ub + 1e-9)
        assert mismatches == 0

    def test_duals_reproduce_objective(self, np_rng):
        for _ in range(20):
            m, n = 4, 8
            a, b, c, _ = random_instance(np_rng, m, n)
            c = np.abs(c)  # nonnegative costs keep the problem bounded
            res = solve_lp(c, a, b, np.full(n, np.inf))
            # strong duality with no finite upper bounds: y@b equals the value
            assert res.duals @ b == pytest.approx(res.value, abs=1e-7)
            reduced = c - res.duals @ a
            assert reduced.min() > -1e-8


class TestStructure:
    def test_redundant_rows_handled(self, np_rng):
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 2.0, 1.0])
        c = np.array([1.0, 2.0, 0.5])
        res = solve_lp(c, a, b, np.full(3, np.inf))
        ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * 3, method="highs")
        assert res.value == pytest.approx(ref.fun, abs=1e-9)

    def test_infeasible_detected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        with pytest.raises(InfeasibleError):
            solve_lp(np.ones(2), a, b, np.full(2, np.inf))

    def test_unbounded_detected(self):
        a = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        with pytest.raises(UnboundedError):
            solve_lp(np.array([-1.0, 0.0]), a, b, np.full(2, np.inf))

    def test_upper_bounds_bind(self):
        # minimize -x subject to x + s = 10, x <= 3
        a = np.array([[1.0, 1.0]])
        b = np.array([10.0])
        res = solve_lp(np.array([-1.0, 0.0]), a, b, np.array([3.0, np.inf]))
        assert res.x[0] == pytest.approx(3.0, abs=1e-10)
        assert res.value == pytest.approx(-3.0, abs=1e-10)

    def test_degenerate_instance_terminates(self):
        # many ties in the ratio test; anti-cycling fallback must finish
        a = np.array([
            [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        ])
        b = np.array([0.0, 0.0, 0.0, 0.0])
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0])
        res = solve_lp(c, a, b, np.full(6, np.inf))
        assert res.value == pytest.approx(0.0, abs=1e-12)


def feasible_stack(rng, k, m, n):
    """k LPs sharing c, b and upper that differ in the first n - m columns of A;
    the last m columns are shared, and x = (0, u) is feasible for every LP."""
    shared = rng.standard_normal((m, m))
    u = rng.uniform(0.2, 1.0, size=m)
    b = shared @ u
    A = np.empty((k, m, n))
    A[:, :, : n - m] = rng.standard_normal((k, m, n - m))
    A[:, :, n - m :] = shared
    ub = np.where(rng.random(n) < 0.5, rng.uniform(1.5, 4.0, size=n), np.inf)
    c = rng.standard_normal(n)
    c[np.isinf(ub)] = np.abs(c[np.isinf(ub)])  # bounded: free directions cost
    return c, A, b, ub


def assert_same_bits(entry, alone):
    for got, want in ((entry[0], alone.x), (entry[2], alone.duals)):
        assert got.tobytes() == want.tobytes()
    assert entry[1] == alone.value and entry[3] == alone.pivots


class TestStack:
    """Every stack entry is bit for bit the LP solved alone."""

    def test_entries_match_lone_solves(self, np_rng):
        for _ in range(12):
            k = int(np_rng.integers(1, 9))
            m = int(np_rng.integers(1, 6))
            n = int(np_rng.integers(m + 1, m + 9))
            c, A, b, ub = feasible_stack(np_rng, k, m, n)
            res = solve_lp_stack(c, A, b, ub)
            for i in range(k):
                alone = solve_lp(c, A[i], b, ub)
                assert_same_bits((res.x[i], res.value[i], res.duals[i], res.pivots[i]), alone)
                ref = linprog(c, A_eq=A[i], b_eq=b,
                              bounds=[(0, u if np.isfinite(u) else None) for u in ub],
                              method="highs")
                assert res.value[i] == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))

    def test_redundant_row_pinned_next_to_regular_entries(self):
        # entry 0 repeats a constraint (its second row is twice the first);
        # entry 1 does not.  The redundant row keeps dual 0.
        b = np.array([1.0, 2.0, 1.0])
        A = np.array([
            [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]],
            [[1.0, 1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        ])
        c = np.array([1.0, 2.0, 0.5])
        res = solve_lp_stack(c, A, b, np.full(3, np.inf))
        for i in range(2):
            assert_same_bits((res.x[i], res.value[i], res.duals[i], res.pivots[i]),
                             solve_lp(c, A[i], b, np.full(3, np.inf)))
            ref = linprog(c, A_eq=A[i], b_eq=b, bounds=[(0, None)] * 3, method="highs")
            assert res.value[i] == pytest.approx(ref.fun, abs=1e-9)
            reduced = c - res.duals[i] @ A[i]
            assert reduced.min() > -1e-9  # the duals certify optimality
        assert np.count_nonzero(res.basis[0] >= 3) == 1
        assert res.duals[0][res.basis[0][res.basis[0] >= 3][0] - 3] == 0.0

    def test_infeasible_entry_raises(self):
        b = np.array([1.0, 2.0])
        A = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(InfeasibleError):
            solve_lp_stack(np.ones(2), A, b, np.full(2, np.inf))
        solve_lp_stack(np.ones(2), A[:1], b, np.full(2, np.inf))

    def test_unbounded_entry_raises(self):
        b = np.array([0.0])
        A = np.array([[[1.0, 1.0]], [[1.0, -1.0]]])
        c = np.array([-1.0, 0.0])
        with pytest.raises(UnboundedError):
            solve_lp_stack(c, A, b, np.full(2, np.inf))
        assert solve_lp_stack(c, A[:1], b, np.full(2, np.inf)).value[0] == 0.0

    def test_pivot_limit_raises(self, np_rng):
        b = random_tall(np_rng, 40, 4)
        A = np.empty((2, 4, 41))
        A[:, :, :40] = b.T
        A[:, :, 40] = -np_rng.standard_normal((2, 4))
        c = np.zeros(41)
        c[40] = -1.0
        ub = np.full(41, 2.0)
        ub[40] = np.inf
        # more than 8 pivots over two phases: some phase needs more than 4
        assert solve_lp_stack(c, A, b.sum(axis=0), ub).pivots.min() > 8
        with pytest.raises(NonConvergenceError):
            solve_lp_stack(c, A, b.sum(axis=0), ub, max_pivots=3)

    def test_pivot_rules_pinned(self):
        # recorded pivot counts and bit-exact optimal values of seeded,
        # degenerate integer LPs: a change to pricing, Bland's trigger, the
        # ratio test or its tie-break moves them
        g = np.random.default_rng(5)
        A = np.empty((8, 5, 14))
        A[:, :, :9] = g.integers(-2, 3, (8, 5, 9))
        A[:, :, 9:] = np.eye(5)
        b = g.integers(0, 2, 5).astype(float)
        ub = np.concatenate([np.where(g.random(9) < 0.5, g.integers(1, 3, 9), np.inf),
                             np.full(5, np.inf)])
        c = g.integers(-3, 3, 14).astype(float)
        c[np.isinf(ub)] = np.abs(c[np.isinf(ub)])
        res = solve_lp_stack(c, A, b, ub)
        assert res.pivots.tolist() == [9, 9, 6, 16, 8, 9, 13, 7]
        assert res.value.tolist() == [
            -0.5, 1.5, 3.0, 3.0, -1.0, 0.45833333333333337, -5.0, -3.2727272727272725
        ]


def test_failed_dual_recovery_reroutes_that_row_alone(np_rng, monkeypatch):
    # corrupt the multipliers of one row's stacked dual LP: only that row may
    # take the literal primal LP, and every value must still match HiGHS
    import lpsens.regress as regress

    b = random_tall(np_rng, 30, 3, scale_rows=True)
    rows = np_rng.standard_normal((6, 3))
    clean = regress.sensitivities_wrt(rows, b, 1)
    real_stack, real_primal = regress.solve_lp_stack, regress._min_l1_primal

    def corrupt(c, A, rhs, upper=None):
        res = real_stack(c, A, rhs, upper=upper)
        res.duals[2] *= 1.5
        return res

    rerouted = []

    def primal(B, a):
        rerouted.append(a)
        return real_primal(B, a)

    monkeypatch.setattr(regress, "solve_lp_stack", corrupt)
    monkeypatch.setattr(regress, "_min_l1_primal", primal)
    vals = regress.sensitivities_wrt(rows, b, 1)
    assert len(rerouted) == 1 and np.array_equal(rerouted[0], rows[2])
    assert np.array_equal(np.delete(vals, 2), np.delete(clean, 2))
    for row, val in zip(rows, vals):
        ref_val, _ = min_l1_on_hyperplane_linprog(b, row)
        assert val == pytest.approx(1.0 / ref_val, rel=1e-7)
