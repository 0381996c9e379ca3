"""Statistical leverage scores, exact and sketched.

The exact scores are squared row norms of the orthonormal basis that the
estimators' rank gate decides the rank from (``core.orthonormal_basis``):
CholeskyQR2 where the Gram's Cholesky factor certifies full column rank,
else the column-pivoted QR and its RANK_TOL cut.  ``matrix_rank`` keeps the
same rule, so all three agree on the rank of a matrix.

The sketched scores compress A with a sparse sign embedding (OSNAP in block
form; Nelson and Nguyen 2013): r sketch rows split into s = SKETCH_BLOCKS = 8
equal blocks, r = max(ceil(8 ln n / eps^2), d + 1) rounded up to a multiple
of s, and each row of A lands on one random row of every block with sign
+-1/sqrt(s).  Each estimate keeps the window [tau_i/(1+eps)^2,
tau_i/(1-eps)^2] whenever the sketch is a (1 +- eps) subspace embedding.
Drawing and applying the sketch takes s n integer draws, O(s n d) flops and
O(s n + r d) memory.  S A has rank d only if A does, so ``matrix_rank`` of
the small sketch, not of A, certifies the full column rank the estimate needs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse

from .core import (
    GatedMatrix,
    RandomSource,
    WeightVector,
    as_matrix,
    matrix_rank,
    orthonormal_basis,
    require_tall_full_rank,
)

# nonzeros per column of the sparse sketch, one in each of this many row blocks
SKETCH_BLOCKS = 8


def leverage_exact(a) -> WeightVector:
    """Leverage score of every row: tau_i = a_i @ pinv(A^T A) @ a_i.

    Computed as squared row norms of the first rank columns of the basis q
    that decides the rank everywhere else (CholeskyQR2 on a certified full
    rank, else the pivoted QR), which keeps the values in [0, 1] and their
    sum equal to that rank.  Works for any shape and rank.  Given a
    ``GatedMatrix`` it reads q off the gate's factorization, whose rank is
    d, so the scores are the same bits without a second one.
    """
    if isinstance(a, GatedMatrix):
        q = a.q
    else:
        basis = orthonormal_basis(as_matrix(a))
        q = basis.q[:, : basis.rank]
    vals = np.einsum("ij,ij->i", q, q)
    return WeightVector(values=np.clip(vals, 0.0, 1.0), kind="leverage", p=2.0)


def _sparse_sign_sketch(n: int, r: int, gen: np.random.Generator) -> scipy.sparse.csc_array:
    """r x n OSNAP embedding: column j has one +-1/sqrt(s) in each of s row blocks."""
    s = SKETCH_BLOCKS
    block = r // s
    # one draw per nonzero: its offset within the block and, in the low bit, its sign
    draws = gen.integers(0, 2 * block, size=(n, s), dtype=np.int32)
    rows = (draws >> 1) + np.arange(0, r, block)
    scale = 1.0 / math.sqrt(s)
    signs = (draws & 1) * (2.0 * scale) - scale
    indptr = np.arange(0, s * n + 1, s)
    return scipy.sparse.csc_array((signs.ravel(), rows.ravel(), indptr), shape=(r, n))


def leverage_approx(a, eps: float, rng: RandomSource) -> WeightVector:
    """Sketched leverage scores, each within [1/(1+eps)^2, 1/(1-eps)^2] of exact.

    The sparse sign embedding S of the module docstring compresses A to
    r x d; the R factor of S @ A preconditions the rows, and the squared
    preconditioned row norms estimate the scores.  When S is a (1 +- eps)
    subspace embedding of the column space of A, which that sketch size aims
    for w.h.p., every estimate lies in [tau_i / (1+eps)^2, tau_i / (1-eps)^2];
    the sketch is too small to promise (1 +- eps) per entry.  Costs
    O(SKETCH_BLOCKS n d) for the sketch plus O(n d^2) for the preconditioned
    rows, with O(SKETCH_BLOCKS n + r d) working memory beyond them.

    Requires full column rank, and the rank of the r x d sketch proves it:
    ``matrix_rank`` of the sketch replaces the rank gate's factorization of
    A, which runs only when the sketch falls short of rank d (as it does
    whenever A is wide) and then raises RankDeficientError on a
    rank-deficient A.  An A whose QR diagonal ratio lies within the sketch's
    distortion of RANK_TOL may therefore pass where the gate alone would
    refuse it.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    a = a.a if isinstance(a, GatedMatrix) else as_matrix(a)
    n, d = a.shape
    r = max(int(math.ceil(8.0 * math.log(n) / (eps * eps))), d + 1)
    r = SKETCH_BLOCKS * math.ceil(r / SKETCH_BLOCKS)
    sketch = _sparse_sign_sketch(n, r, rng.generator()) @ a
    if matrix_rank(sketch) < d:  # always so when A is wide
        require_tall_full_rank(a)
    _, rr = np.linalg.qr(sketch)
    v = scipy.linalg.solve_triangular(rr, a.T, lower=False, trans="T", check_finite=False)
    vals = np.einsum("ji,ji->i", v, v)
    # true scores never exceed 1, so clamping only sharpens the estimate
    return WeightVector(values=np.clip(vals, 0.0, 1.0), kind="leverage", p=2.0)
