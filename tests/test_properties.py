"""Property tests: identities that must hold on every seeded input.

Hypothesis draws a seed and the shape; the matrices come from numpy
generators seeded with it, so every example is a well-formed instance of the
case under test.  Examples are derandomized, so runs are reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tall
from lpsens.core import matrix_rank
from lpsens.leverage import leverage_exact
from lpsens.regress import min_lp_on_hyperplane, sensitivities_exact, sensitivities_wrt

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)
seeds = st.integers(0, 2**32 - 1)
exponents = st.sampled_from([1.0, 1.5, 2.0, 3.0])


def _instance(seed, d, rows):
    gen = np.random.default_rng(seed)
    b = random_tall(gen, int(gen.integers(d + 2, 30)), d, scale_rows=True)
    return gen, b, gen.standard_normal((rows, d))


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_hyperplane_minimum_is_the_one_row_sensitivity(seed, d, p):
    _, b, a = _instance(seed, d, 1)
    sol = min_lp_on_hyperplane(b, a[0], p)
    assert 1.0 / sol.value == sensitivities_wrt(a, b, p)[0]


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4))
def test_hyperplane_minimum_matches_the_p2_closed_form(seed, d):
    _, b, a = _instance(seed, d, 1)
    sol = min_lp_on_hyperplane(b, a[0], 2)
    assert 1.0 / sol.value == pytest.approx(sensitivities_wrt(a, b, 2)[0], rel=1e-9)


@PROPERTY
@given(seed=seeds, d=st.integers(2, 4), p=st.sampled_from([1.0, 1.01, 1.5, 2.0, 3.0]))
def test_rows_off_the_row_space_get_inf_and_rows_in_it_a_finite_value(seed, d, p):
    # B (I - u u^T) has rank d - 1 and the row space u-perp, at every p
    gen, b, m = _instance(seed, d, 2)
    u = gen.standard_normal(d)
    u /= np.linalg.norm(u)
    b = b @ (np.eye(d) - np.outer(u, u))
    inside = m - np.outer(m @ u, u)
    along_u = inside + np.linalg.norm(m, axis=1)[:, None] * u
    vals = sensitivities_wrt(np.vstack([along_u, inside]), b, p)
    assert np.all(np.isinf(vals[:2]))
    assert np.all(np.isfinite(vals[2:]) & (vals[2:] > 0.0))


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4), p=exponents)
def test_invariant_under_a_change_of_basis(seed, d, p):
    # sigma(a R | B R) = sigma(a | B) for invertible R: x -> R^-1 x maps one
    # problem onto the other
    gen, b, m = _instance(seed, d, 5)
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    r = q * np.exp(gen.uniform(-1.0, 1.0, d))  # cond(R) <= e^2
    np.testing.assert_allclose(
        sensitivities_wrt(m @ r, b @ r, p), sensitivities_wrt(m, b, p), rtol=1e-9
    )


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4), p=exponents)
def test_permuting_the_rows_of_m_permutes_the_values(seed, d, p):
    # rows never share arithmetic, so the permuted batch is the same bits
    gen, b, m = _instance(seed, d, 6)
    perm = gen.permutation(6)
    np.testing.assert_array_equal(
        sensitivities_wrt(m[perm], b, p), sensitivities_wrt(m, b, p)[perm]
    )


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4), p=exponents)
def test_unchanged_by_permuting_b_or_scaling_m_and_b_together(seed, d, p):
    # ||B x|| does not depend on the row order, and |c a.x| / ||c B x|| = |a.x| / ||B x||
    gen, b, m = _instance(seed, d, 5)
    ref = sensitivities_wrt(m, b, p)
    shuffled = b[gen.permutation(b.shape[0])]
    np.testing.assert_allclose(sensitivities_wrt(m, shuffled, p), ref, rtol=1e-8)
    c = float(np.exp(gen.uniform(-3.0, 3.0)))
    np.testing.assert_allclose(sensitivities_wrt(c * m, c * b, p), ref, rtol=1e-8)
    # a power of two scales exactly, so even an extreme one keeps every bit
    t = 2.0 ** int(gen.integers(-900, 901))
    np.testing.assert_array_equal(sensitivities_wrt(t * m, t * b, p), ref)
    # every row of B twice doubles ||B x||_p^p and halves each sensitivity
    np.testing.assert_allclose(sensitivities_wrt(m, np.vstack([b, b]), p), ref / 2, rtol=1e-8)


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4), p=exponents)
def test_duplicating_a_row_maps_its_sensitivity_to_s_over_one_plus_s(seed, d, p):
    # with a second copy of row i the objective gains |a_i.x|^p, so
    # sup r / (1 + r) over the ratio r = |a_i.x|^p / ||A x||^p is s / (1 + s)
    gen, a, _ = _instance(seed, d, 0)
    i = int(gen.integers(a.shape[0]))
    s = sensitivities_exact(a, p).values[i]
    doubled = sensitivities_exact(np.vstack([a, a[i]]), p).values
    np.testing.assert_allclose(doubled[[i, -1]], s / (1.0 + s), rtol=1e-8)


def test_duplicated_row_at_p3_to_solver_precision():
    # one derandomized example of the property above, at p = 3, which a solver
    # stopping on a small objective change missed by 9.7e-9
    _, a, _ = _instance(45, 2, 0)
    s = sensitivities_exact(a, 3).values[16]
    doubled = sensitivities_exact(np.vstack([a, a[16]]), 3).values
    np.testing.assert_allclose(doubled[[16, -1]], s / (1.0 + s), rtol=1e-10)


@PROPERTY
@given(
    seed=seeds,
    rank=st.integers(0, 4),
    duplicates=st.integers(0, 3),
    zeros=st.integers(0, 2),
    n=st.integers(1, 12),
)
def test_leverage_total_is_the_rank(seed, rank, duplicates, zeros, n):
    gen = np.random.default_rng(seed)
    rank = min(rank, n)
    base = gen.standard_normal((n, rank))
    cols = [base]
    if rank:
        picks = gen.integers(0, rank, duplicates)
        cols.append(base[:, picks] * gen.uniform(0.5, 2.0, duplicates))
    cols.append(np.zeros((n, zeros)))
    a = np.hstack(cols)
    if a.shape[1] == 0:
        a = np.zeros((n, 1))
    a = a[:, gen.permutation(a.shape[1])]
    assert matrix_rank(a) == rank
    assert leverage_exact(a).total == pytest.approx(rank, abs=1e-12)
