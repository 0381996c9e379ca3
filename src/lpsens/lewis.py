"""lp Lewis weights via an Anderson-accelerated damped fixed-point iteration.

The fixed point w_i = tau_i(W^(1/2 - 1/p) A) needs leverage scores of
row-scaled copies of A, and those stay the same when A is replaced by any
basis of its column space.  ``lewis_weights`` therefore keeps the orthonormal
q that decided the rank of A (CholeskyQR2 on a certified full rank, else the
pivoted QR; its own rank gate's, or the one an estimator's ``GatedMatrix``
carries in), and each iteration costs one d x d Cholesky: with
s = w^(1/2 - 1/p), G = (sQ)^T (sQ) = L L^T and tau_i = |L^-1 s_i q_i|^2.  Q has orthonormal columns, so cond(G) is
bounded by the spread of the weights, not by cond(A)^2.  sQ, then (sQ) L^-T
formed over it in place by BLAS (dtrmm), and the n-vectors of scores and
residuals are written into buffers each call allocates once, the n x d one
Fortran-ordered like the gate's q: at tall n, fresh arrays on every iteration
cost first-touched pages and cold cache lines, a large share of the call.
At p = 2 the scaling W^0 is the identity and the weights are the squared row
norms of Q, with no iteration at all.  Every other p starts from those
leverage scores raised to p/2 and scaled to sum d: for rows that are
isotropic up to their scale the fixed point scales like lev^(p/2), while
from the uniform d/n the first iteration computes lev and, at b = 1, steps
to exactly lev.  The power is taken in log space and shifted by its maximum
before exp, since lev^(p/2) underflows to all zeros at large p when every
score is near d/n.

The base map is the damped log-space step x -> (1 - b) x + b log tau(e^x),
x = log w.  It contracts only for p < 4 (Cohen and Peng, 2015), and slowly
near that edge, so each step mixes it with the last _DEPTH = 3 differences
of the map and of its residual f = g(x) - x (Anderson acceleration, type II;
the _DEPTH x _DEPTH normal equations give the mixing weights).
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
_DEPTH = 3  # differences Anderson mixing keeps


@dataclass(frozen=True)
class LewisConfig:
    p: float

    def __post_init__(self):
        check_exponent(self.p)

    @property
    def beta(self) -> float:
        # step of the base map that Anderson mixing accelerates: the plain
        # log-space update contracts by at most |1 - 2b/p| + b|1 - 2/p|;
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
    below _TOL = 1e-6 within _MAX_ITERS = 200 iterations, and the first w
    that gets there is returned; running out of them raises
    NonConvergenceError naming p and the iteration count, with the final
    residual attached.  The residual bounds one step of the map, not the
    distance to the fixed point: where the map contracts slowly, two starts
    returned weights up to 1.3e-5 relative apart at p = 16 and 24.

    The iteration starts at w_i proportional to max(|q_i|^2, F)^(p/2),
    scaled to sum d and clipped to [F, 1]; the power is exp of
    (p/2) log max(|q_i|^2, F) less its maximum, so the start is finite and
    not all zero at any p >= 1.  The mixed log-weights are clipped to
    [log F, 0], since Lewis weights lie in (0, 1].  The first step has no
    history and is the plain damped one.
    A residual larger than the last one, or a singular mixing system, drops
    the history and takes the plain step from the current point.

    At p = 2 the fixed point is the leverage scores themselves: the call
    returns max(|q_i|^2, F) on the live rows without iterating.
    """
    a, q = require_tall_full_rank(a)
    # zero rows have weight exactly 0 and would pin the residual at the
    # clamping floor forever; solve the fixed point on the live block only.
    # A zero row of A gives a row of q that is zero up to rounding, so q[live]
    # still spans the column space of A[live]
    live = np.any(a != 0.0, axis=1)
    if not live.all():
        q = q[live]
    weights = np.zeros(a.shape[0])
    lev = np.einsum("ij,ij->i", q, q)
    np.maximum(lev, _FLOOR, out=lev)
    if cfg.p == 2:
        # W^0 A = A: the fixed point is the leverage scores of q, no iteration
        weights[live] = lev
        return WeightVector(values=weights, kind="lewis", p=float(cfg.p))
    n, d = q.shape
    expo, beta, eye = 0.5 - 1.0 / cfg.p, cfg.beta, np.eye(d)
    # Anderson history: the last _DEPTH differences of f = g(x) - x and of g(x),
    # written round-robin; kept counts the differences since the last restart
    df, dg = np.empty((n, _DEPTH)), np.empty((n, _DEPTH))
    kept = 0
    f_prev = g_prev = None
    # every iteration writes into these; y is Fortran-ordered, as the gate's q
    # is, so BLAS can overwrite it with (sQ) L^-T in place
    y = np.empty((n, d), order="F")
    tau, scratch = np.empty(n), np.empty(n)
    # start at lev^(p/2) scaled to sum d, written over lev; its log is shifted
    # by its maximum first, since lev^(p/2) itself underflows to all zeros at
    # large p
    w = np.multiply(np.log(lev, out=lev), 0.5 * cfg.p, out=lev)
    np.exp(np.subtract(w, np.max(w), out=w), out=w)
    np.clip(np.multiply(w, d / np.sum(w), out=w), _FLOOR, 1.0, out=w)
    residual = prev_residual = np.inf
    for _ in range(_MAX_ITERS):
        np.maximum(w, _FLOOR, out=w)
        np.multiply(q, np.power(w, expo, out=scratch)[:, None], out=y)
        chol = scipy.linalg.cholesky(y.T @ y, lower=True, check_finite=False)
        # one n x d product with the d x d inverse is cheaper than n triangular solves
        linv = scipy.linalg.solve_triangular(chol, eye, lower=True, check_finite=False)
        scipy.linalg.blas.dtrmm(1.0, linv, y, side=1, lower=1, trans_a=1, overwrite_b=1)
        # a score under the floor counts as the floor, as it does in the update;
        # otherwise rows whose weight sits clamped there pin the residual at 1
        np.maximum(np.einsum("ij,ij->i", y, y, out=tau), _FLOOR, out=tau)
        np.abs(np.subtract(w, tau, out=scratch), out=scratch)
        residual = float(np.max(np.divide(scratch, w, out=scratch)))
        if residual <= _TOL:
            weights[live] = w
            return WeightVector(values=weights, kind="lewis", p=float(cfg.p))
        x = np.log(w)
        g = (1.0 - beta) * x + beta * np.log(tau)
        f = g - x
        if residual > prev_residual:
            kept = 0  # the last step lost ground: restart from the plain step here
        elif f_prev is not None:
            df[:, kept % _DEPTH] = f - f_prev
            dg[:, kept % _DEPTH] = g - g_prev
            kept += 1
        f_prev, g_prev, prev_residual = f, g, residual
        step = g  # the plain damped step
        if kept:
            h = min(kept, _DEPTH)
            try:
                gamma = np.linalg.solve(df[:, :h].T @ df[:, :h], df[:, :h].T @ f)
            except np.linalg.LinAlgError:
                gamma = np.full(h, np.nan)
            if np.all(np.isfinite(gamma)):
                # Lewis weights lie in (0, 1], and clipping there keeps exp finite
                step = np.clip(g - dg[:, :h] @ gamma, np.log(_FLOOR), 0.0)
            else:
                kept = 0
        w = np.exp(step)
    raise NonConvergenceError(
        f"Lewis weights at p = {cfg.p:g} did not reach tol={_TOL} in {_MAX_ITERS}"
        f" iterations (residual {residual:.3e})",
        residual=residual,
    )
