"""Per-row sensitivity estimation by block compression.

Rows are hashed into random blocks of size alpha; each block is compressed
into a handful of random sign combinations, and the sensitivity of a row is
estimated by the most sensitive sign combination its block produced,
measured against a sampled lp embedding of the matrix.  The median over
independent repetitions is reported per row.

A repetition draws its block partition and all its signs from one stream
each and combines every block with one batched product (the float signs in
chunks of ``_SIGN_BUDGET``), so its count of array operations does not grow
with n / alpha below that budget.  Consecutive repetitions stack their
combinations, up to ``_ROW_BUDGET`` rows (a larger repetition alone), and
one oracle call answers each stack: at the benchmark's sizes that is one
call per estimate.  Rows never share arithmetic in the oracle, so the
grouping does not change a bit of the output.  The median over repetitions
is a pruned odd-even transposition network of elementwise minima and maxima.

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
    FactoredMatrix,
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
# sign combinations answered by one oracle call, so memory does not grow with
# the repetitions; a repetition with more rows is answered alone, and the
# output does not depend on it
_ROW_BUDGET = 1 << 16


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
    # factored once, here: every oracle call below solves against this value
    sa = FactoredMatrix.of(embedding.materialize(a))

    signs_per_block, alpha = cfg.signs_per_block, cfg.alpha
    nb = -(-n // alpha)
    # the permuted rows, zero-padded to whole blocks: a zero row adds nothing
    # to a sign combination, so the short last block needs no special case
    rows = np.zeros((nb * alpha, d))
    blocks = rows.reshape(nb, alpha, d)
    step = max(1, _SIGN_BUDGET // (signs_per_block * alpha))
    group = max(1, _ROW_BUDGET // (nb * signs_per_block))  # repetitions per oracle call
    # row j of block b's combinations in the group's k-th repetition sits at
    # (k * nb + b) * signs_per_block + j
    compressed = np.empty((min(group, cfg.repetitions), nb, signs_per_block, d))
    per_rep = np.empty((cfg.repetitions, n))
    for first in range(0, cfg.repetitions, group):
        reps = range(first, min(first + group, cfg.repetitions))
        orders = []
        for k, rep in enumerate(reps):
            rep_rng = rng.child("rep", rep)
            order = _block_order(n, rep_rng.child("blocks"))
            orders.append(order)
            # order is a permutation of range(n), so "clip" never acts; it keeps
            # take from buffering its output as mode="raise" does
            np.take(a, order, axis=0, out=rows[:n], mode="clip")
            draw = rep_rng.child("signs").generator().integers(
                0, 2, size=(nb, signs_per_block, alpha), dtype=np.bool_
            )
            for lo in range(0, nb, step):
                signs = np.multiply(draw[lo : lo + step], 2.0, dtype=np.float64)
                signs -= 1.0
                np.matmul(signs, blocks[lo : lo + step], out=compressed[k, lo : lo + step])
        sens = sensitivities_wrt(compressed[: len(reps)].reshape(-1, d), sa, cfg.p)
        best = sens.reshape(len(reps), nb, signs_per_block).max(axis=2)
        for rep, order, top in zip(reps, orders, best):
            per_rep[rep, order] = np.repeat(top, alpha)[:n]

    estimates = _middle(per_rep)
    weights = WeightVector(values=estimates, kind="sensitivity", p=float(cfg.p))
    return RowwiseResult(
        estimates=weights,
        oracle_calls=cfg.repetitions * nb * signs_per_block,
        embedded_rows=len(embedding),
        per_repetition=per_rep,
    )


def _middle(rows: np.ndarray) -> np.ndarray:
    """Each column's middle order statistic over an odd number of rows.

    An odd-even transposition network (as many rounds as rows, each comparing
    neighbouring rows) sorts every column; only the comparisons whose outputs
    reach the middle row are made, each an elementwise min or max of two
    whole rows.  Entries are only moved, so the result is bit-equal to
    np.median, and at a few rows it costs a fraction of np.partition, which
    selects column by column.
    """
    r = len(rows)
    need, plan = {r // 2}, []
    for k in reversed(range(r)):  # back from the middle row to what it reads
        for i in range(k % 2, r - 1, 2):
            lo, hi = i in need, i + 1 in need
            if lo or hi:
                plan.append((i, lo, hi))
                need |= {i, i + 1}
    s = list(rows)
    for i, lo, hi in reversed(plan):
        a, b = s[i], s[i + 1]
        if lo:
            s[i] = np.minimum(a, b)
        if hi:
            s[i + 1] = np.maximum(a, b)
    return np.array(s[r // 2])  # a copy when r = 1, not a view of rows
