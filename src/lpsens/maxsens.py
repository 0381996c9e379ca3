"""Maximum-sensitivity estimation.

For p = 2 the maximum sensitivity is the maximum leverage score and is
computed exactly.  For other p the candidate maximizers are the rows of a
barycentric spanner of the row set: any row is a small-coefficient
combination of spanner rows, so the largest sensitivity among spanner rows,
scaled by the (2d)^(p/2) distortion of that representation, bounds the true
maximum from above while staying within a modest factor of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RandomSource, require_tall_full_rank, tall_full_rank_basis
from .embed import linf_embedding, lp_embedding
from .leverage import leverage_exact
from .regress import sensitivities_wrt


@dataclass(frozen=True)
class MaxSensitivityResult:
    estimate: float  # distortion-scaled upper estimate
    raw_max: float  # largest sensitivity seen among candidate rows
    distortion_multiplier: float
    spanner_rows: tuple[int, ...]


def max_sensitivity(a, p, rng: RandomSource, embed_eps: float = 0.25) -> MaxSensitivityResult:
    """Estimate max_i of the lp sensitivities of the rows of ``a``."""
    gated = tall_full_rank_basis(a)
    a = require_tall_full_rank(gated)
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    p = float(p)
    if p == 2.0:
        top = float(leverage_exact(gated).values.max())
        return MaxSensitivityResult(
            estimate=top, raw_max=top, distortion_multiplier=1.0, spanner_rows=()
        )

    d = a.shape[1]
    spanner = linf_embedding(gated)
    rows = tuple(int(i) for i in spanner.source_rows)
    embedding = lp_embedding(gated, p, embed_eps, rng.child("embed"))
    sa = embedding.materialize(a)
    candidate_vals = sensitivities_wrt(a[np.array(rows, dtype=np.intp)], sa, p)
    raw_max = float(candidate_vals.max())
    multiplier = float((2.0 * d) ** (p / 2.0))
    return MaxSensitivityResult(
        estimate=multiplier * raw_max,
        raw_max=raw_max,
        distortion_multiplier=multiplier,
        spanner_rows=rows,
    )
