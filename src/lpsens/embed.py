"""Row-sampling subspace embeddings for lp norms, plus an l-infinity one.

``lp_embedding`` keeps each row independently with probability proportional
to its Lewis weight and rescales kept rows so that ||S A x||_p approximates
||A x||_p for all x simultaneously.  ``linf_embedding`` instead selects d
rows forming an approximate barycentric spanner, giving a deterministic
2d-factor distortion for the max norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    NonConvergenceError,
    RandomSource,
    as_matrix,
    matrix_rank,
    require_tall_full_rank,
    tall_full_rank_basis,
)
from .lewis import LewisConfig, lewis_weights

_INCLUSION_CONSTANT = 4.0  # O(1) factor of the Lewis inclusion rate; eps sets the rest


@dataclass(frozen=True)
class SamplingEmbedding:
    """Row subset with per-row scales: S A = scales * A[source_rows]."""

    source_rows: np.ndarray
    scales: np.ndarray
    p: float
    target_distortion: float

    def __post_init__(self):
        object.__setattr__(self, "source_rows", np.asarray(self.source_rows, dtype=np.intp))
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=np.float64))
        if self.source_rows.shape != self.scales.shape:
            raise ValueError("source_rows and scales must have equal length")

    def __len__(self):
        return self.source_rows.shape[0]

    def materialize(self, a) -> np.ndarray:
        a = as_matrix(a)
        return a[self.source_rows] * self.scales[:, None]


def inclusion_probabilities(weights, d, eps) -> np.ndarray:
    """Per-row Bernoulli keep probabilities from Lewis weights.

    min(1, 4 * eps^-2 * w_i * log(d)^2 * log(d / eps)); the log factors are
    floored at 1 so tiny d cannot zero them out.
    """
    log_d = max(math.log(d), 1.0)
    log_de = max(math.log(d / eps), 1.0)
    factor = _INCLUSION_CONSTANT * log_d * log_d * log_de / (eps * eps)
    return np.minimum(1.0, factor * np.asarray(weights, dtype=np.float64))


def lp_embedding(a, p, eps: float, rng: RandomSource, weights=None) -> SamplingEmbedding:
    """Sample an lp subspace embedding of A at target distortion eps.

    Precomputed Lewis weights may be passed to avoid recomputing them.  The
    sampled row set is redrawn (from fresh substreams) in the rare event it
    loses column rank, and kept rows are scaled by p_i^(-1/p).  ``a`` may be
    a ``GatedMatrix``; either way the Lewis weights reuse the one rank-gate
    QR of A, so the call factors A once.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    gated = tall_full_rank_basis(a)
    a = require_tall_full_rank(gated)
    n, d = a.shape
    if weights is None:
        weights = lewis_weights(gated, LewisConfig(p=p)).values
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights length must match the row count")
    probs = inclusion_probabilities(weights, d, eps)
    for attempt in range(20):
        gen = rng.child("lp_embedding", attempt).generator()
        keep = gen.random(n) < probs
        rows = np.nonzero(keep)[0]
        if rows.size >= d and matrix_rank(a[rows]) == d:
            scales = probs[rows] ** (-1.0 / p)
            return SamplingEmbedding(
                source_rows=rows, scales=scales, p=float(p), target_distortion=eps
            )
    raise NonConvergenceError("sampled embedding kept losing column rank")


def linf_embedding(a) -> SamplingEmbedding:
    """Select d rows forming a 2-approximate barycentric spanner.

    Every row of A is a combination of the selected rows with coefficients
    bounded by 2 in absolute value, hence
    ||B x||_inf <= ||A x||_inf <= 2 d ||B x||_inf  for the selected block B.
    Deterministic; swaps a row in whenever it doubles the basis determinant.
    ``a`` may be a ``GatedMatrix``, which skips the rank gate's QR.
    """
    a = require_tall_full_rank(a)
    n, d = a.shape
    # start from the d best-conditioned rows (column pivots of A^T)
    _, _, perm = scipy.linalg.qr(a.T, mode="economic", pivoting=True)
    basis = np.sort(perm[:d]).copy()
    # each swap at least doubles |det|, which caps the number of rounds
    max_swaps = 64 * d + int(4 * d * math.log1p(n))
    for _ in range(max_swaps):
        coeff = np.linalg.solve(a[basis].T, a.T).T  # row i of A = coeff[i] @ A[basis]
        pos = np.unravel_index(np.argmax(np.abs(coeff)), coeff.shape)
        if abs(coeff[pos]) <= 2.0 + 1e-9:  # slack for rounding in the solve
            return SamplingEmbedding(
                source_rows=np.sort(basis),
                scales=np.ones(d),
                p=math.inf,
                target_distortion=2.0 * d,
            )
        basis[pos[1]] = pos[0]
    raise NonConvergenceError("barycentric spanner swaps did not settle")
