"""Property tests: identities that must hold on every seeded input.

Hypothesis draws a seed and the shape; the matrices come from numpy
generators seeded with it, so every example is a well-formed instance of the
case under test.  Examples are derandomized, so runs are reproducible.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_tall
from lpsens.core import matrix_rank
from lpsens.leverage import leverage_exact
from lpsens.regress import min_lp_on_hyperplane, sensitivities_exact, sensitivities_wrt

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)
seeds = st.integers(0, 2**32 - 1)
exponents = st.sampled_from([1.0, 1.5, 2.0, 3.0])


def pinned(names, *cases):
    """One ``@example`` per case, its values for ``names`` in order.

    Hypothesis mixes literal constants of the local source into its draws, so
    an edit to ``src/`` can change which examples a derandomized test draws.
    Each test pins the 30 draws it made before such an edit, which keeps
    them tested whatever the draws become.
    """

    def pin(test):
        for case in cases:
            test = example(**dict(zip(names.split(), case)))(test)
        return test

    return pin


def _instance(seed, d, rows):
    gen = np.random.default_rng(seed)
    b = random_tall(gen, int(gen.integers(d + 2, 30)), d, scale_rows=True)
    return gen, b, gen.standard_normal((rows, d))


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@pinned(
    "seed d p",
    (0, 1, 1.0), (130580, 1, 1.0), (130580, 3, 2.0), (448, 1, 1.0), (448, 2, 1.5),
    (59081, 1, 1.5), (4067, 1, 3.0), (678, 4, 3.0), (31302, 4, 1.5), (2005272489, 1, 3.0),
    (952455, 1, 2.0), (1, 1, 2.0), (1239, 4, 2.0), (4, 4, 2.0), (10628638, 4, 2.0),
    (10628638, 1, 2.0), (34509, 2, 1.0), (34509, 1, 1.0), (1756, 2, 1.5), (1756, 1, 1.5),
    (1, 1, 1.5), (70149, 4, 2.0), (9714, 1, 2.0), (1624, 1, 1.5), (8015, 3, 1.5),
    (8015, 1, 1.5), (18073726, 3, 1.5), (3, 3, 1.5), (3115393342, 4, 2.0), (87416770, 4, 3.0),
)
def test_hyperplane_minimum_is_the_one_row_sensitivity(seed, d, p):
    _, b, a = _instance(seed, d, 1)
    sol = min_lp_on_hyperplane(b, a[0], p)
    assert 1.0 / sol.value == sensitivities_wrt(a, b, p)[0]


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4))
@pinned(
    "seed d",
    (0, 1), (1035561, 1), (1035561, 4), (1413, 1), (1413, 2), (67108864, 2), (2029386, 4),
    (32548, 1), (17, 1), (193, 4), (443614, 2), (2, 2), (24, 4), (4, 4), (1608, 1), (1, 1),
    (162, 1), (0, 2), (3540, 1), (59351568, 2), (20008272, 1), (18, 1), (11216535, 4),
    (11216535, 1), (1012, 2), (1043022, 3), (3, 3), (170869, 3), (124349, 4), (4515, 4),
)
def test_hyperplane_minimum_matches_the_p2_closed_form(seed, d):
    _, b, a = _instance(seed, d, 1)
    sol = min_lp_on_hyperplane(b, a[0], 2)
    assert 1.0 / sol.value == pytest.approx(sensitivities_wrt(a, b, 2)[0], rel=1e-9)


@PROPERTY
@given(seed=seeds, d=st.integers(2, 4), p=st.sampled_from([1.0, 1.01, 1.5, 2.0, 3.0]))
@pinned(
    "seed d p",
    (0, 2, 1.0), (264, 2, 1.0), (264, 4, 1.5), (1309, 2, 1.0), (1309, 4, 1.5), (3246, 2, 3.0),
    (74248, 2, 1.5), (697217, 4, 1.0), (44031596, 2, 1.5), (231452880, 4, 1.0),
    (22825009, 4, 3.0), (4, 4, 3.0), (635, 3, 1.01), (3, 3, 1.01), (53, 4, 3.0),
    (32053, 4, 3.0), (32053, 2, 3.0), (2, 2, 3.0), (2649, 2, 1.01), (2, 2, 1.01),
    (1112313306, 3, 2.0), (1112313306, 2, 2.0), (2, 2, 2.0), (133713, 2, 1.5), (2, 2, 1.5),
    (99999, 2, 1.5), (305, 4, 1.01), (4, 4, 1.01), (219491, 2, 1.5), (118211, 3, 1.0),
)
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
@pinned(
    "seed d p",
    (0, 1, 1.0), (239569697, 1, 1.0), (239569697, 3, 2.0), (353594666, 1, 1.0),
    (353594666, 1, 2.0), (474, 3, 2.0), (2104015, 4, 3.0), (8569560, 3, 2.0), (507, 4, 1.0),
    (178680281, 4, 2.0), (7, 4, 3.0), (4, 4, 3.0), (2309275, 1, 1.0), (1, 1, 1.0),
    (705, 3, 1.0), (705, 1, 1.0), (16777217, 4, 1.0), (4, 4, 1.0), (257256, 1, 2.0),
    (1, 1, 2.0), (16614539, 3, 2.0), (3, 3, 2.0), (50853, 1, 2.0), (2147483647, 2, 2.0),
    (2147483647, 1, 2.0), (1074, 2, 3.0), (2, 2, 3.0), (200, 2, 1.0), (200, 1, 1.0),
    (108, 1, 3.0),
)
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
@pinned(
    "seed d p",
    (0, 1, 1.0), (677, 1, 1.0), (459, 1, 1.0), (459, 4, 3.0), (163048400, 1, 1.0),
    (1002164, 1, 1.0), (1329, 4, 3.0), (901, 2, 1.0), (7843, 2, 2.0), (2404, 4, 1.0),
    (17341, 3, 2.0), (3, 3, 2.0), (215328733, 1, 1.5), (1, 1, 1.5), (34760, 3, 2.0),
    (34760, 1, 2.0), (1, 1, 2.0), (44611875, 1, 3.0), (1, 1, 3.0), (1103762, 4, 1.0),
    (4, 4, 1.0), (172563, 2, 3.0), (2, 2, 3.0), (4947186, 2, 3.0), (4947186, 1, 3.0),
    (127938, 1, 1.5), (3214536, 4, 3.0), (4, 4, 3.0), (456735482, 3, 1.5), (456735482, 1, 1.5),
)
def test_permuting_the_rows_of_m_permutes_the_values(seed, d, p):
    # rows never share arithmetic, so the permuted batch is the same bits
    gen, b, m = _instance(seed, d, 6)
    perm = gen.permutation(6)
    np.testing.assert_array_equal(
        sensitivities_wrt(m[perm], b, p), sensitivities_wrt(m, b, p)[perm]
    )


@PROPERTY
@given(seed=seeds, d=st.integers(1, 4), p=exponents)
@pinned(
    "seed d p",
    (0, 1, 1.0), (13271339, 1, 1.0), (13271339, 2, 1.0), (14563, 1, 1.0), (14563, 4, 1.5),
    (3762, 3, 3.0), (253, 4, 1.5), (38421, 1, 1.5), (1540, 1, 1.0), (77167, 4, 1.0),
    (165549, 3, 1.5), (3, 3, 1.5), (1964801, 2, 1.5), (1964801, 1, 1.5), (1, 1, 1.5),
    (200, 2, 1.0), (2, 2, 1.0), (236, 1, 2.0), (1, 1, 2.0), (2303363, 4, 1.0), (4, 4, 1.0),
    (68, 2, 3.0), (2, 2, 3.0), (6567, 1, 1.5), (765, 1, 1.5), (0, 2, 1.5), (0, 1, 1.5),
    (470, 2, 1.0), (266, 1, 3.0), (1, 1, 3.0),
)
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
@pinned(
    "seed d p",
    (0, 1, 1.0), (337, 1, 1.0), (337, 2, 2.0), (296666, 1, 1.0), (296666, 1, 2.0),
    (13035, 2, 1.0), (1917, 4, 1.5), (53067, 4, 3.0), (2905, 2, 1.5), (4412188, 2, 3.0),
    (131756, 4, 1.5), (131756, 1, 1.5), (1, 1, 1.5), (1890, 4, 2.0), (4, 4, 2.0),
    (1875, 4, 2.0), (554, 2, 1.0), (554, 1, 1.0), (1, 1, 1.0), (1398789, 1, 1.5),
    (9355084, 4, 2.0), (71212, 1, 1.5), (4702721, 4, 1.0), (4, 4, 1.0), (918, 4, 1.0),
    (918, 1, 1.0), (4895884, 3, 1.5), (3, 3, 1.5), (1375032715, 4, 1.0), (494, 2, 1.0),
)
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
@pinned(
    "seed rank duplicates zeros n",
    (0, 0, 0, 0, 1), (15924, 0, 0, 0, 1), (15924, 1, 1, 0, 9), (104251916, 0, 0, 0, 1),
    (104251916, 4, 0, 0, 6), (83764, 2, 3, 0, 10), (287214550, 3, 0, 1, 4),
    (125455331, 0, 3, 0, 1), (73101, 4, 2, 0, 1), (42, 0, 1, 2, 11), (41, 4, 1, 2, 2),
    (41, 2, 1, 2, 2), (1, 2, 1, 2, 2), (1, 2, 1, 2, 1), (1, 2, 1, 1, 1), (1, 1, 1, 1, 1),
    (213534, 4, 1, 2, 1), (213534, 4, 1, 0, 1), (213534, 4, 0, 0, 1), (1, 4, 0, 0, 1),
    (1, 4, 1, 0, 1), (1, 4, 1, 0, 4), (1, 0, 1, 0, 4), (96865120, 1, 1, 2, 2),
    (96865120, 1, 1, 2, 1), (1, 1, 1, 2, 1), (100, 0, 1, 2, 12), (2, 0, 1, 2, 12),
    (1, 0, 1, 2, 12), (1, 2, 1, 2, 12),
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
