"""lp Lewis weights via a damped fixed-point iteration.

The fixed point w_i = tau_i(W^(1/2 - 1/p) A) needs leverage scores of
row-scaled copies of A, and those stay the same when A is replaced by any
basis of its column space.  ``lewis_weights`` therefore keeps the q factor of
the pivoted QR that decided the rank of A (its own rank gate's, or the one
an estimator's ``GatedMatrix`` carries in), and each iteration costs one
d x d Cholesky: with s = w^(1/2 - 1/p), G = (sQ)^T (sQ) = L L^T
and tau_i = |L^-1 s_i q_i|^2.  Q has orthonormal columns, so cond(G) is
bounded by the spread of the weights, not by cond(A)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import NonConvergenceError, WeightVector, check_exponent, require_tall_full_rank
from .leverage import leverage_exact  # noqa: F401 - perfbench/tracer.py wraps lewis.leverage_exact

_FLOOR = 1e-12  # weights are clamped here before any power is taken
_MAX_ITERS = 200
_TOL = 1e-6  # on the relative fixed-point residual


@dataclass(frozen=True)
class LewisConfig:
    p: float

    def __post_init__(self):
        check_exponent(self.p)

    @property
    def beta(self) -> float:
        # the log-space update contracts by at most |1 - 2b/p| + b|1 - 2/p|;
        # an undamped step (b = 1) oscillates for p < 2, while b = p/2 turns
        # the update into the classic w <- q^(p/2) map with factor 1 - b
        if self.p < 2:
            return self.p / 2.0
        return 1.0 if self.p < 4 else 0.5


def lewis_weights(a, cfg: LewisConfig) -> WeightVector:
    """Fixed point of w_i = tau_i(W^(1/2 - 1/p) A), found in log space.

    ``a`` may be a ``GatedMatrix``; its q is then the basis, and this call
    runs no QR of its own.

    Weights and scores are clamped at F = 1e-12 before they are compared:
    the residual max_i |max(w_i, F) - max(tau_i, F)| / max(w_i, F) must fall
    below _TOL = 1e-6 within _MAX_ITERS = 200 iterations; running out of
    them raises NonConvergenceError with the final residual attached.
    """
    a, q = require_tall_full_rank(a)
    d = a.shape[1]
    # zero rows have weight exactly 0 and would pin the residual at the
    # clamping floor forever; solve the fixed point on the live block only.
    # A zero row of A gives a row of q that is zero up to rounding, so q[live]
    # still spans the column space of A[live]
    live = np.any(a != 0.0, axis=1)
    if not live.all():
        q = q[live]
    n = q.shape[0]
    expo = 0.5 - 1.0 / cfg.p
    beta = cfg.beta
    eye = np.eye(d)
    w = np.full(n, d / n)
    residual = np.inf
    for _ in range(_MAX_ITERS):
        w = np.maximum(w, _FLOOR)
        y = q * (w**expo)[:, None]
        chol = scipy.linalg.cholesky(y.T @ y, lower=True, check_finite=False)
        # one n x d product with the d x d inverse is cheaper than n triangular solves
        z = y @ scipy.linalg.solve_triangular(chol, eye, lower=True, check_finite=False).T
        # a score under the floor counts as the floor, as it does in the update;
        # otherwise rows whose weight sits clamped there pin the residual at 1
        tau = np.maximum(np.einsum("ij,ij->i", z, z), _FLOOR)
        residual = float(np.max(np.abs(w - tau) / w))
        if residual <= _TOL:
            weights = np.zeros(a.shape[0])
            weights[live] = w
            return WeightVector(values=weights, kind="lewis", p=float(cfg.p))
        w = np.exp((1.0 - beta) * np.log(w) + beta * np.log(tau))
    raise NonConvergenceError(
        f"Lewis weights did not reach tol={_TOL} in {_MAX_ITERS} iterations"
        f" (residual {residual:.3e})",
        residual=residual,
    )
