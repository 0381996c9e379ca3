"""Total-sensitivity estimators.

``total_lewis_oneshot`` importance-samples rows at Lewis-weight rates and
averages the ratio sensitivity / sampling-weight, which is unbiased for the
total against the embedded matrix.  ``total_recursive_l1`` is the l1
specialist: it splits rows into leverage buckets, uniformly subsamples each
bucket (values within a bucket are within a bounded ratio, so uniform
sampling is safe), and recurses until blocks are small enough to add up
directly; its default base size makes every practical n one such block.
``bounded_ratio_mean`` is that uniform-sampling primitive on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (  # noqa: F401 - perfbench/tracer.py wraps total.pseudoinverse_gram
    FactoredMatrix,
    RandomSource,
    as_matrix,
    check_exponent,
    pseudoinverse_gram,
    require_tall_full_rank,
    store_integral_fields,
)
from .embed import lp_embedding
from .leverage import leverage_exact
from .lewis import LewisConfig, lewis_weights
from .regress import sensitivities_wrt

_METHODS = ("lewis_oneshot", "recursive_l1")
_ONESHOT_SAMPLE_CONSTANT = 10.0  # O(1) factor of the one-shot sample size; gamma sets the rest


@dataclass(frozen=True)
class TotalConfig:
    p: float
    gamma: float
    method: str = "lewis_oneshot"  # read only by the CLI's estimator dispatch
    embed_eps: float = 0.5
    base_size: int | None = None  # overrides the base-case formula when set
    r_override: int | None = None  # overrides the per-bucket sample size when set

    def __post_init__(self):
        store_integral_fields(self, "base_size", "r_override")
        check_exponent(self.p)
        if not 0.01 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0.01, 1), got {self.gamma}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")


def bounded_ratio_mean(values, ratio_bound, gamma, delta, rng: RandomSource):
    """Estimate the sum of positive values whose max/min ratio is bounded.

    Draws ceil(10 * ratio_bound * (1 + gamma) / gamma^2 * ln(1/delta))
    uniform indices with replacement and rescales: within a factor
    (1 +- gamma) of the true sum with probability at least 1 - delta.
    """
    if not ratio_bound >= 1:
        raise ValueError("ratio_bound must be at least 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    if not np.all(arr > 0):
        raise ValueError("values must all be positive")
    size = int(math.ceil(10.0 * ratio_bound * (1.0 + gamma) / (gamma * gamma) * math.log(1.0 / delta)))
    idx = rng.generator().integers(0, arr.size, size=size)
    return float(arr.size / size * arr[idx].sum())


class OneShotTotal:
    """Reusable one-shot estimator: fixes the embedding, then samples cheaply.

    Splitting preparation from sampling lets many seeded estimates share one
    embedded matrix, which is also what the unbiasedness statement refers to.
    """

    def __init__(self, a, cfg: TotalConfig, rng: RandomSource):
        gated = require_tall_full_rank(a)
        a = gated.a
        n, d = a.shape
        self.a = a
        self.p = float(cfg.p)
        w = lewis_weights(gated, LewisConfig(p=cfg.p)).values
        self.v = w / d  # sampling weight of each row; sums to 1 up to tolerance
        self.probs = self.v / self.v.sum()
        self.sample_size = int(
            math.ceil(
                _ONESHOT_SAMPLE_CONSTANT * d ** abs(1.0 - cfg.p / 2.0) / (cfg.gamma * cfg.gamma)
            )
        )
        embedding = lp_embedding(gated, cfg.p, cfg.embed_eps, rng.child("embed"), weights=w)
        self.sa = FactoredMatrix.of(embedding.materialize(a))  # factored once for every estimate
        self.embedded_rows = len(embedding)
        self._memo = np.full(n, np.nan)  # sensitivity of each row against sa, once computed

    def _sensitivities(self, rows: np.ndarray) -> np.ndarray:
        """Sensitivities of the given rows, computing the missing ones in one call."""
        missing = np.unique(rows[np.isnan(self._memo[rows])])
        if missing.size:
            self._memo[missing] = sensitivities_wrt(self.a[missing], self.sa, self.p)
        return self._memo[rows]

    def embedded_total(self) -> float:
        """Sum of every row's sensitivity against the embedded matrix."""
        return float(self._sensitivities(np.arange(self.a.shape[0])).sum())

    def estimate(self, rng: RandomSource) -> float:
        gen = rng.generator()
        idx = gen.choice(self.a.shape[0], size=self.sample_size, replace=True, p=self.probs)
        # accumulate in sample order (add.accumulate is sequential, unlike sum)
        ratios = self._sensitivities(idx) / self.v[idx]
        return float(np.add.accumulate(ratios)[-1] / self.sample_size)


def total_lewis_oneshot(a, cfg: TotalConfig, rng: RandomSource) -> float:
    """One-shot estimate of the total lp sensitivity of A."""
    est = OneShotTotal(a, cfg, rng.child("prepare"))
    return est.estimate(rng.child("sample"))


def _depth_cap(n: int, d: int) -> int:
    inner = max(2.0 * n + 2.0 * d * math.log2(max(d, 2)), 4.0)
    return 1 + int(math.ceil(math.log2(math.log2(inner))))


def _bucket_count(n: int) -> int:
    # geometric halves of [1, n^-20]
    return max(1, int(math.ceil(20.0 * math.log2(max(n, 2)))))


def _bucket_index(tau: np.ndarray, n_buckets: int) -> np.ndarray:
    # bucket k holds [2^-k, 2^-(k-1)), except k = 1 which closes at 1
    with np.errstate(divide="ignore"):
        k = np.ceil(-np.log2(np.maximum(tau, 0.0)))
    k = np.where(np.isfinite(k), k, n_buckets)
    return np.clip(k, 1, n_buckets).astype(np.intp)


def total_recursive_l1(a, cfg: TotalConfig, rng: RandomSource) -> float:
    """Recursive estimate of the total l1 sensitivity; never meant to undershoot.

    Rows with negligible leverage are dropped and compensated by an n^-5
    term; the rest are bucketed by leverage against a constant-accuracy
    embedding, subsampled uniformly per bucket, and recursed.  The returned
    value carries the (1 + gamma) safety factor.  The default base size,
    c max(c, sqrt(d)) with c = depth_cap^4 / gamma^2, is 4.1e7 rows at
    112 x 4 and 2.4e8 at 25000 x 16 (gamma = 0.2) and exceeds every n below
    about 1.7e6 at any gamma < 1: so every practical n is one base case.
    """
    if cfg.p != 1:
        raise ValueError("the recursive estimator is specific to p = 1")
    gated = require_tall_full_rank(a)
    a = gated.a
    n, d = a.shape

    depth_cap = _depth_cap(n, d)
    rho = cfg.gamma / depth_cap
    bucket_count = _bucket_count(n)
    delta = 0.01 / bucket_count**depth_cap
    if cfg.base_size is not None:
        base_size = cfg.base_size
    else:
        core = depth_cap**4 / (cfg.gamma * cfg.gamma)
        base_size = int(math.ceil(core * max(core, math.sqrt(d))))
    base_size = max(base_size, 1)

    tau = leverage_exact(gated).values
    keep = tau >= n**-10.0
    dropped = int(n - keep.sum())
    surviving = a[keep]

    w = lewis_weights(gated, LewisConfig(p=1)).values  # shared by both embeddings
    sa = None  # read only by a node that recurses; at the default base size none does
    if surviving.shape[0] > base_size:
        sa = lp_embedding(gated, 1, cfg.embed_eps, rng.child("sa"), weights=w).materialize(a)
    spa = lp_embedding(gated, 1, min(cfg.embed_eps, rho), rng.child("spa"), weights=w)
    spa = FactoredMatrix.of(spa.materialize(a))  # factored once for every base case

    def sample_size(n_node: int) -> int:
        if cfg.r_override is not None:
            return max(cfg.r_override, 1)
        r = math.ceil(math.sqrt(n_node) * (1.0 + rho) / (rho * rho) * math.log(1.0 / delta))
        return max(int(r), 1)

    def recurse(m_rows: np.ndarray, depth: int, rng: RandomSource) -> float:
        if depth > depth_cap:
            raise RuntimeError(
                "internal error: sensitivity recursion exceeded its depth cap "
                f"({depth_cap}); buckets are not shrinking fast enough"
            )
        n_node = m_rows.shape[0]
        base = n_node <= base_size
        if not base:
            c = np.vstack([m_rows, sa])
            buckets = _bucket_index(leverage_exact(c).values[:n_node], bucket_count)
            keys, r_size = np.unique(buckets), sample_size(c.shape[0])
            # one bucket kept whole would recurse on this very node: a base case
            base = keys.size == 1 and r_size >= n_node
        if base:
            return float(sensitivities_wrt(m_rows, spa, 1.0).sum())

        total = 0.0
        for k in keys:
            members = np.nonzero(buckets == k)[0]
            scale = max(members.size / r_size, 1.0)
            if scale > 1.0:  # more members than r_size: r_size uniform draws stand for them
                gen = rng.child("sample", int(k)).generator()
                members = members[gen.integers(0, members.size, size=r_size)]
            total += scale * recurse(m_rows[members], depth + 1, rng.child("bucket", int(k)))
        return (1.0 + rho) * total

    s = recurse(as_matrix(surviving), 0, rng.child("recurse"))
    return (1.0 + cfg.gamma) * (s + dropped * float(n) ** -5.0)
