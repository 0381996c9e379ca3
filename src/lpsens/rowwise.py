"""Per-row sensitivity estimation by block compression.

Rows are hashed into random blocks of size alpha; each block is compressed
into a handful of random sign combinations, and the sensitivity of a row is
estimated by the most sensitive sign combination its block produced,
measured against a sampled lp embedding of the matrix.  The median over
independent repetitions is reported per row.

The estimate for row i overshoots sigma_p(a_i) by at most roughly
alpha^(p-1) plus an alpha^p / n share of the total sensitivity, and
undershoots only with the probability that every sign combination cancels
the row, so it is a per-row upper-bound-style sketch at a fraction of the
exact cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RandomSource,
    WeightVector,
    require_tall_full_rank,
    store_integral_fields,
    tall_full_rank_basis,
)
from .embed import lp_embedding
from .regress import sensitivities_wrt


@dataclass(frozen=True)
class RowwiseConfig:
    p: float
    alpha: int
    signs_per_block: int = 100
    repetitions: int = 9
    embed_eps: float = 0.5

    def __post_init__(self):
        store_integral_fields(self, "alpha", "signs_per_block", "repetitions")
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if self.signs_per_block < 1:
            raise ValueError("signs_per_block must be positive")
        if self.repetitions < 1 or self.repetitions % 2 == 0:
            raise ValueError("repetitions must be a positive odd number")
        if not 0.0 < self.embed_eps < 1.0:
            raise ValueError("embed_eps must be in (0, 1)")


@dataclass(frozen=True)
class RowwiseResult:
    estimates: WeightVector
    oracle_calls: int
    embedded_rows: int
    per_repetition: np.ndarray  # repetitions x n block estimates


def random_blocks(n: int, alpha: int, rng: RandomSource) -> list[np.ndarray]:
    """Random partition of range(n) into ceil(n / alpha) blocks.

    All blocks have size alpha except a final shorter one when alpha does
    not divide n.
    """
    perm = rng.generator().permutation(n)
    return [perm[i : i + alpha] for i in range(0, n, alpha)]


def sensitivities_rowwise(a, cfg: RowwiseConfig, rng: RandomSource) -> RowwiseResult:
    """Estimate every row's lp sensitivity from block sign combinations."""
    gated = tall_full_rank_basis(a)
    a = require_tall_full_rank(gated)
    n, d = a.shape
    if cfg.alpha >= n:
        raise ValueError(f"alpha must be smaller than the row count {n}")

    embedding = lp_embedding(gated, cfg.p, cfg.embed_eps, rng.child("embed"))
    sa = embedding.materialize(a)

    per_rep = np.empty((cfg.repetitions, n))
    calls = 0
    for rep in range(cfg.repetitions):
        rep_rng = rng.child("rep", rep)
        blocks = random_blocks(n, cfg.alpha, rep_rng.child("blocks"))
        compressed = []
        for bi, block in enumerate(blocks):
            gen = rep_rng.child("signs", bi).generator()
            signs = gen.integers(0, 2, size=(cfg.signs_per_block, block.size)) * 2.0 - 1.0
            compressed.append(signs @ a[block])
        # one oracle call per repetition; row j of block b sits at b * signs_per_block + j
        sens = sensitivities_wrt(np.vstack(compressed), sa, cfg.p)
        calls += sens.size
        for block, top in zip(blocks, sens.reshape(len(blocks), -1).max(axis=1)):
            per_rep[rep, block] = top

    estimates = np.median(per_rep, axis=0)
    weights = WeightVector(values=estimates, kind="sensitivity", p=float(cfg.p))
    return RowwiseResult(
        estimates=weights,
        oracle_calls=calls,
        embedded_rows=len(embedding),
        per_repetition=per_rep,
    )
