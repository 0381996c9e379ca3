"""The p = 1 linear program  min ||B x||_1  subject to  a @ x = 1.

Newton IRLS leads each row to a vertex that a dual point certifies;
regress.solve_lp (scipy's HiGHS) solves a row no certificate covers.  These
tests hold the values against an independent HiGHS solve on random,
redundant and degenerate instances, check that a row's results are its own
in any batch, and that a row whose certificate fails is the only one
rerouted to HiGHS.
"""

import tracemalloc

import numpy as np
import pytest

import lpsens.regress as regress
from conftest import min_l1_on_hyperplane_linprog, random_tall
from lpsens.core import NonConvergenceError
from lpsens.regress import min_lp_on_hyperplane, sensitivities_wrt, solve_lp


def assert_optimal(B, a, x, value, rel=1e-9):
    """x is feasible, value is ||B x||_1 and it matches HiGHS's optimum."""
    ref, _ = min_l1_on_hyperplane_linprog(B, a)
    assert a @ x == pytest.approx(1.0, abs=1e-9)
    assert value == pytest.approx(np.abs(B @ x).sum(), rel=1e-12)
    assert value == pytest.approx(ref, rel=rel)


class TestAgainstScipy:
    def test_fuzz_values_match_highs(self, np_rng):
        for trial in range(60):
            d = int(np_rng.integers(2, 6))
            m = int(np_rng.integers(d, d + 20))
            if trial % 3 == 0:  # integer entries: ties and degenerate vertices
                B = np_rng.integers(-2, 3, (m, d)).astype(float)
            else:
                B = random_tall(np_rng, m, d, scale_rows=trial % 3 == 2)
            if np.linalg.matrix_rank(B) < d:
                continue
            a = np_rng.standard_normal(d)
            sol = min_lp_on_hyperplane(B, a, 1)
            assert sol.status == "optimal"
            assert_optimal(B, a, sol.x_opt, sol.value)
            lp = solve_lp(B, a)
            assert_optimal(B, a, lp.x, lp.value)


class TestStructure:
    def test_redundant_rows_handled(self, np_rng):
        # B repeats rows and holds a multiple of another, so the d - 1
        # smallest residuals can name one constraint twice
        base = random_tall(np_rng, 12, 3)
        B = np.vstack([base, base[:4], 2.0 * base[4:6]])
        for a in np.vstack([base[:6], np_rng.standard_normal((4, 3))]):
            sol = min_lp_on_hyperplane(B, a, 1)
            assert_optimal(B, a, sol.x_opt, sol.value)

    def test_infeasible_detected(self):
        # a = 0 leaves a @ x = 1 without a solution
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NonConvergenceError):
            solve_lp(B, np.zeros(2))
        with pytest.raises(ValueError):
            min_lp_on_hyperplane(B, np.zeros(2), 1)

    def test_degenerate_instance_terminates(self):
        # every x >= 0 with sum(x) = 1 is optimal (value 5) and every vertex
        # has more than d - 1 zero residuals
        B = np.vstack([np.eye(4)] * 5)
        sol = min_lp_on_hyperplane(B, np.ones(4), 1)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(5.0, abs=1e-12)
        assert np.all(sol.x_opt >= -1e-12) and sol.x_opt.sum() == pytest.approx(1.0)
        assert 0 < sol.iterations < len(regress._DELTAS) * regress._MAX_INNER


def as_solved(B, X):
    """X as ``_minimize`` hands it to its solvers: times 2^-e, e the exponent of B's largest entry."""
    return np.ldexp(X, -np.frexp(np.abs(B).max())[1])


def assert_same_bits(B, A, i, batch):
    alone = regress._minimize(B, A[i : i + 1], 1)
    for got, want in zip(batch, alone):
        assert got[i].tobytes() == want[0].tobytes()


class TestStack:
    """Every batch entry is bit for bit the row solved alone."""

    def test_entries_match_lone_solves(self, np_rng):
        for _ in range(12):
            d = int(np_rng.integers(2, 6))
            m = int(np_rng.integers(d + 1, d + 30))
            k = int(np_rng.integers(1, 9))
            B = random_tall(np_rng, m, d, scale_rows=True)
            A = np_rng.standard_normal((k, d))
            batch = regress._minimize(B, A, 1)
            for i in range(k):
                assert_same_bits(B, A, i, batch)
                assert_optimal(B, A[i], batch[0][i], batch[1][i])

    def test_redundant_row_pinned_next_to_regular_entries(self, monkeypatch):
        # on a B with repeated rows some entries need the zero-set dual and
        # the others retire on the square one; neither moves the other
        g = np.random.default_rng(7)
        base = g.standard_normal((12, 3))
        B = np.vstack([base, base[:4], 2.0 * base[4:6]])
        A = np.vstack([base[:6], g.standard_normal((4, 3))])
        zero_set, zero_set_dual = [], regress._zero_set_dual

        def spy(*args):
            certified = zero_set_dual(*args)
            zero_set.append(np.count_nonzero(certified))
            return certified

        monkeypatch.setattr(regress, "_zero_set_dual", spy)
        batch = regress._minimize(B, A, 1)
        assert 0 < sum(zero_set) < len(A)
        for i in range(len(A)):
            assert_same_bits(B, A, i, batch)
            assert_optimal(B, A[i], batch[0][i], batch[1][i])


def test_highs_working_memory():
    # the LP's two m x m identity blocks are sparse: dense, a 2000 x 4 B's
    # constraint matrix alone took 128 MB
    g = np.random.default_rng(5)
    B = g.standard_normal((2000, 4)) * np.exp(g.uniform(-1.5, 1.5, 2000))[:, None]
    a = g.standard_normal(4)
    solve_lp(B[:10], a)  # imports outside the count
    tracemalloc.start()
    try:
        lp = solve_lp(B, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    assert_optimal(B, a, lp.x, lp.value)


def test_failed_dual_recovery_reroutes_that_row_alone(np_rng, monkeypatch):
    # reject every certificate for one row: only that row may go to HiGHS,
    # the others keep their bits, and every value must still match HiGHS
    b = random_tall(np_rng, 30, 3, scale_rows=True)
    rows = np_rng.standard_normal((6, 3))
    clean = sensitivities_wrt(rows, b, 1)
    row_2 = as_solved(b, rows[2])
    crossover, real_solve_lp = regress._crossover, regress.solve_lp

    def reject_row_2(B, A, key, cut, last):
        certified, x, value = crossover(B, A, key, cut, last)
        return certified & ~(A == row_2).all(axis=1), x, value

    rerouted = []

    def highs(B, a):
        rerouted.append(a)
        return real_solve_lp(B, a)

    monkeypatch.setattr(regress, "_crossover", reject_row_2)
    monkeypatch.setattr(regress, "solve_lp", highs)
    vals = sensitivities_wrt(rows, b, 1)
    assert len(rerouted) == 1 and np.array_equal(rerouted[0], row_2)
    assert np.array_equal(np.delete(vals, 2), np.delete(clean, 2))
    for row, val in zip(rows, vals):
        ref_val, _ = min_l1_on_hyperplane_linprog(b, row)
        assert val == pytest.approx(1.0 / ref_val, rel=1e-9)
