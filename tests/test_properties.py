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
from lpsens.regress import min_lp_on_hyperplane, sensitivities_wrt

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def _instance(seed, d, rows):
    gen = np.random.default_rng(seed)
    b = random_tall(gen, int(gen.integers(d + 2, 30)), d, scale_rows=True)
    return gen, b, gen.standard_normal((rows, d))


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4), p=st.sampled_from([1.0, 1.5, 3.0]))
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
@given(seed=seeds, d=st.integers(1, 4), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
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
