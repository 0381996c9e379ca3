"""Statistical leverage scores, exact and sketched.

The exact scores come from the same column-pivoted QR and RANK_TOL cut that
``matrix_rank`` and the estimators' rank gate use, so all three agree on the
rank of a matrix.

The sketched scores compress A with a sparse sign embedding (OSNAP in block
form; Nelson and Nguyen 2013): r sketch rows split into s = SKETCH_BLOCKS = 8
equal blocks, r = max(ceil(8 ln n / eps^2), d + 1) rounded up to a multiple
of s, and each row of A lands on one random row of every block with sign
+-1/sqrt(s).  Each estimate keeps the window [tau_i/(1+eps)^2,
tau_i/(1-eps)^2] whenever the sketch is a (1 +- eps) subspace embedding.
Drawing and applying the sketch takes s n integer draws, O(s n d) flops and
O(s n + r d) memory.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse

from .core import GatedMatrix, RandomSource, WeightVector, pivoted_qr, require_tall_full_rank

# nonzeros per column of the sparse sketch, one in each of this many row blocks
SKETCH_BLOCKS = 8


def leverage_exact(a) -> WeightVector:
    """Leverage score of every row: tau_i = a_i @ pinv(A^T A) @ a_i.

    Computed as squared row norms of the first rank columns of q from the
    pivoted QR that decides the rank everywhere else, which keeps the values
    in [0, 1] and their sum equal to that rank.  Works for any shape and rank.
    Given a ``GatedMatrix`` it reads q off the gate's QR, whose rank is d, so
    the scores are the same bits without a second QR.
    """
    if isinstance(a, GatedMatrix):
        q = a.q
    else:
        qr = pivoted_qr(a)
        q = qr.q[:, : qr.rank]
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
    O(SKETCH_BLOCKS n d) for the sketch plus the rank gate's O(n d^2) pivoted
    QR, with O(SKETCH_BLOCKS n + r d) working memory beyond the d x n
    preconditioned rows.  Requires full column rank.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    a = require_tall_full_rank(a)
    n, d = a.shape
    r = max(int(math.ceil(8.0 * math.log(n) / (eps * eps))), d + 1)
    r = SKETCH_BLOCKS * math.ceil(r / SKETCH_BLOCKS)
    sketch = _sparse_sign_sketch(n, r, rng.generator()) @ a
    _, rr = np.linalg.qr(sketch)
    v = scipy.linalg.solve_triangular(rr, a.T, lower=False, trans="T")
    vals = np.einsum("ji,ji->i", v, v)
    # true scores never exceed 1, so clamping only sharpens the estimate
    return WeightVector(values=np.clip(vals, 0.0, 1.0), kind="leverage", p=2.0)
