"""Statistical leverage scores, exact and sketched.

The exact scores come from the same column-pivoted QR and RANK_TOL cut that
``matrix_rank`` and the estimators' rank gate use, so all three agree on the
rank of a matrix.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .core import RandomSource, WeightVector, pivoted_qr, require_tall_full_rank


def leverage_exact(a) -> WeightVector:
    """Leverage score of every row: tau_i = a_i @ pinv(A^T A) @ a_i.

    Computed as squared row norms of the first rank columns of q from the
    pivoted QR that decides the rank everywhere else, which keeps the values
    in [0, 1] and their sum equal to that rank.  Works for any shape and rank.
    """
    qr = pivoted_qr(a)
    q = qr.q[:, : qr.rank]
    vals = np.einsum("ij,ij->i", q, q)
    return WeightVector(values=np.clip(vals, 0.0, 1.0), kind="leverage", p=2.0)


def leverage_approx(a, eps: float, rng: RandomSource) -> WeightVector:
    """Sketched leverage scores, each within [1/(1+eps)^2, 1/(1-eps)^2] of exact.

    A Gaussian sketch G with ceil(8 ln n / eps^2) rows compresses A, the R
    factor of G @ A preconditions the rows, and the squared preconditioned
    row norms estimate the scores.  When G is a (1 +- eps) subspace embedding
    of the column space of A, which that sketch size aims for w.h.p., every
    estimate lies in [tau_i / (1+eps)^2, tau_i / (1-eps)^2]; the sketch is too
    small to promise (1 +- eps) per entry.  Requires full column rank.
    """
    a = require_tall_full_rank(a)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    n, d = a.shape
    r = max(int(math.ceil(8.0 * math.log(n) / (eps * eps))), d + 1)
    g = rng.generator().standard_normal((r, n)) / math.sqrt(r)
    sketch = g @ a
    _, rr = np.linalg.qr(sketch)
    v = scipy.linalg.solve_triangular(rr, a.T, lower=False, trans="T")
    vals = np.einsum("ji,ji->i", v, v)
    # true scores never exceed 1, so clamping only sharpens the estimate
    return WeightVector(values=np.clip(vals, 0.0, 1.0), kind="leverage", p=2.0)
