"""Per-row sensitivity estimation by block compression.

Rows are hashed into random blocks of size alpha; each block is compressed
into a handful of random sign combinations, and the sensitivity of a row is
estimated by the most sensitive sign combination its block produced,
measured against a sampled lp embedding of the matrix.  The median over
independent repetitions is reported per row.

A repetition draws its block partition and all its signs from one stream
each, combines every block with one batched product (the float signs in
chunks of ``_SIGN_BUDGET``) and makes one oracle call, so its count of
array operations does not grow with n / alpha below that budget.

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
    check_exponent,
    require_tall_full_rank,
    store_integral_fields,
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
        check_exponent(self.p)
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


# float signs held at a time (2 MB), so memory does not grow with
# n * signs_per_block; the output does not depend on it
_SIGN_BUDGET = 1 << 18


def random_blocks(n: int, alpha: int, rng: RandomSource) -> list[np.ndarray]:
    """Random partition of range(n) into ceil(n / alpha) blocks.

    Block b is entries b * alpha to (b + 1) * alpha of ``_block_order``'s
    permutation, so all blocks have size alpha except a final shorter one
    when alpha does not divide n.
    """
    order = _block_order(n, rng)
    return [order[i : i + alpha] for i in range(0, n, alpha)]


def _block_order(n: int, rng: RandomSource) -> np.ndarray:
    return rng.generator().permutation(n)


def sensitivities_rowwise(a, cfg: RowwiseConfig, rng: RandomSource) -> RowwiseResult:
    """Estimate every row's lp sensitivity from block sign combinations."""
    gated = require_tall_full_rank(a)
    a = gated.a
    n, d = a.shape
    if cfg.alpha >= n:
        raise ValueError(f"alpha must be smaller than the row count {n}")

    embedding = lp_embedding(gated, cfg.p, cfg.embed_eps, rng.child("embed"))
    sa = embedding.materialize(a)

    signs_per_block, alpha = cfg.signs_per_block, cfg.alpha
    nb = -(-n // alpha)
    # the permuted rows, zero-padded to whole blocks: a zero row adds nothing
    # to a sign combination, so the short last block needs no special case
    rows = np.zeros((nb * alpha, d))
    blocks = rows.reshape(nb, alpha, d)
    # row j of block b's combinations sits at b * signs_per_block + j
    compressed = np.empty((nb, signs_per_block, d))
    step = max(1, _SIGN_BUDGET // (signs_per_block * alpha))
    per_rep = np.empty((cfg.repetitions, n))
    calls = 0
    for rep in range(cfg.repetitions):
        rep_rng = rng.child("rep", rep)
        order = _block_order(n, rep_rng.child("blocks"))
        # order is a permutation of range(n), so "clip" never acts; it keeps
        # take from buffering its output as mode="raise" does
        np.take(a, order, axis=0, out=rows[:n], mode="clip")
        draw = rep_rng.child("signs").generator().integers(
            0, 2, size=(nb, signs_per_block, alpha), dtype=np.bool_
        )
        for lo in range(0, nb, step):
            signs = np.multiply(draw[lo : lo + step], 2.0, dtype=np.float64)
            signs -= 1.0
            np.matmul(signs, blocks[lo : lo + step], out=compressed[lo : lo + step])
        # one oracle call per repetition
        sens = sensitivities_wrt(compressed.reshape(-1, d), sa, cfg.p)
        calls += sens.size
        per_rep[rep, order] = np.repeat(sens.reshape(nb, -1).max(axis=1), alpha)[:n]

    # the middle order statistic of an odd count, bit-equal to np.median
    mid = cfg.repetitions // 2
    estimates = np.partition(per_rep, mid, axis=0)[mid]
    weights = WeightVector(values=estimates, kind="sensitivity", p=float(cfg.p))
    return RowwiseResult(
        estimates=weights,
        oracle_calls=calls,
        embedded_rows=len(embedding),
        per_repetition=per_rep,
    )
