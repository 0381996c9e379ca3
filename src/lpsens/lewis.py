"""lp Lewis weights via a damped fixed-point iteration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    NonConvergenceError,
    WeightVector,
    require_tall_full_rank,
)
from .leverage import leverage_exact

_FLOOR = 1e-12  # weights are clamped here before any power is taken


@dataclass(frozen=True)
class LewisConfig:
    p: float
    max_iters: int = 200
    tol: float = 1e-6
    damping: float | None = None  # default p/2 for p < 2, 1.0 for p in [2, 4), 0.5 above

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if np.isinf(self.p):
            raise ValueError("Lewis weights need finite p")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.damping is not None and not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")

    @property
    def beta(self) -> float:
        if self.damping is not None:
            return self.damping
        # the log-space update contracts by at most |1 - 2b/p| + b|1 - 2/p|;
        # an undamped step (b = 1) oscillates for p < 2, while b = p/2 turns
        # the update into the classic w <- q^(p/2) map with factor 1 - b
        if self.p < 2:
            return self.p / 2.0
        return 1.0 if self.p < 4 else 0.5


def _scaled_leverage(a, w, expo):
    return leverage_exact(a * np.maximum(w, _FLOOR)[:, None] ** expo).values


def lewis_weights(a, cfg: LewisConfig) -> WeightVector:
    """Fixed point of w_i = tau_i(W^(1/2 - 1/p) A), found in log space.

    The residual max_i |w_i - tau_i| / max(w_i, 1e-12) must fall below
    cfg.tol; running out of iterations raises NonConvergenceError with the
    final residual attached.
    """
    a = require_tall_full_rank(a)
    d = a.shape[1]
    # zero rows have weight exactly 0 and would pin the residual at the
    # clamping floor forever; solve the fixed point on the live block only
    live = np.linalg.norm(a, axis=1) > 0.0
    block = a[live]
    n = block.shape[0]
    expo = 0.5 - 1.0 / cfg.p
    beta = cfg.beta
    w = np.full(n, d / n)
    residual = np.inf
    for _ in range(cfg.max_iters):
        tau = _scaled_leverage(block, w, expo)
        residual = float(np.max(np.abs(w - tau) / np.maximum(w, _FLOOR)))
        if residual <= cfg.tol:
            weights = np.zeros(a.shape[0])
            weights[live] = w
            return WeightVector(values=weights, kind="lewis", p=float(cfg.p))
        w = np.exp(
            (1.0 - beta) * np.log(np.maximum(w, _FLOOR))
            + beta * np.log(np.maximum(tau, _FLOOR))
        )
    raise NonConvergenceError(
        f"Lewis weights did not reach tol={cfg.tol} in {cfg.max_iters} iterations"
        f" (residual {residual:.3e})",
        residual=residual,
    )
