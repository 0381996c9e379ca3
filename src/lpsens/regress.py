"""Constrained lp regression and the sensitivities built on it.

The quantity everything reduces to is

    min ||B x||_p^p   subject to   a @ x = 1,

whose reciprocal is the sensitivity of the row ``a`` with respect to ``B``.
One private dispatcher, ``_minimize``, solves it for a stack of rows.  It
first decides, from B alone and so alike for every p, which rows leave the
row space of B: their minimum is 0, at a null vector of B, and costs no
solve.  Of the rest, p = 2 has a closed form in the Gram pseudoinverse and
d = 1 forces x = 1 / a; p = 1 is solved exactly as a linear program, and
every other p by iteratively reweighted least squares (IRLS) on a smoothed
objective.  The weights are Newton's: each iteration weights the
least-squares system by the smoothed objective's second derivative and
solves it for a step, halved until the objective falls enough, so a row
converges quadratically once near its minimum.  ``min_lp_on_hyperplane`` is
its one-row case and reports a solve that ran out of iterations;
``sensitivities_wrt`` raises NonConvergenceError instead.

Both solvers handle all rows of a batch together.  At p = 1 every row's dual
LP differs from the others only in one column, so the batch is one stack of
LPs that the simplex advances in lockstep.  IRLS eliminates each row's
hyperplane into one entry of a stack of (m, d - 1) matrices, and every
iteration forms and solves the Newton systems of the rows still active as
one stack.  Rows retire as soon as they finish, and no row's arithmetic
depends on another's, so a row gets bit-identical results whether it is
solved alone or in any batch.  Working memory is capped by solving the
rows in chunks of at most ``_CHUNK_ELEMENTS`` stacked matrix entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    RANK_TOL,
    NonConvergenceError,
    WeightVector,
    as_matrix,
    as_vector,
    pseudoinverse_gram,
    require_tall_full_rank,
)
from .leverage import leverage_exact
from .simplex import solve_lp, solve_lp_stack


@dataclass(frozen=True)
class RegressionSolution:
    x_opt: np.ndarray
    value: float
    status: str  # "optimal" or "iteration_limit"
    iterations: int


def _eliminate_hyperplanes(B, A):
    """Substitute each row's largest-|a_j| coordinate out of  a @ x = 1.

    For row i of A returns M[i], c[i] with  B x = M[i] z + c[i],  where z are
    the coordinates rest[i] and x_k = (1 - a_rest @ z) / a_k for k = k[i].
    Every stack entry is computed from its own row alone.
    """
    K, d = A.shape
    k = np.argmax(np.abs(A), axis=1)  # ties resolve to the lowest index
    j = np.arange(d - 1)
    rest = j + (j >= k[:, None])
    c = np.ascontiguousarray(B[:, k].T) / A[np.arange(K), k][:, None]
    a_rest = np.take_along_axis(A, rest, axis=1)
    M = np.empty((K, B.shape[0], d - 1))
    np.subtract(B[:, rest].transpose(1, 0, 2), c[:, :, None] * a_rest[:, None, :], out=M)
    return M, c, k, rest


def _assemble(z, A, k, rest):
    rows = np.arange(A.shape[0])
    x = np.empty(A.shape)
    np.put_along_axis(x, rest, z, axis=1)
    a_rest = np.take_along_axis(A, rest, axis=1)
    x[rows, k] = (1.0 - np.sum(a_rest * z, axis=1)) / A[rows, k]
    return x


def _min_l1_primal(B, a):
    """Literal LP encoding: min sum(t), -t <= Bx <= t, a @ x = 1."""
    m, d = B.shape
    nv = 2 * d + 3 * m  # x+, x-, t, s1, s2
    A = np.zeros((2 * m + 1, nv))
    A[:m, :d] = B
    A[:m, d : 2 * d] = -B
    A[:m, 2 * d : 2 * d + m] = -np.eye(m)
    A[:m, 2 * d + m : 2 * d + 2 * m] = np.eye(m)
    A[m : 2 * m, :d] = -B
    A[m : 2 * m, d : 2 * d] = B
    A[m : 2 * m, 2 * d : 2 * d + m] = -np.eye(m)
    A[m : 2 * m, 2 * d + 2 * m :] = np.eye(m)
    A[2 * m, :d] = a
    A[2 * m, d : 2 * d] = -a
    b = np.zeros(2 * m + 1)
    b[2 * m] = 1.0
    c = np.zeros(nv)
    c[2 * d : 2 * d + m] = 1.0
    res = solve_lp(c, A, b)
    x = res.x[:d] - res.x[d : 2 * d]
    return RegressionSolution(
        x_opt=x, value=res.value, status="optimal", iterations=res.pivots
    )


def _min_l1_dual(B, A):
    """Box-form dual of the same LP for every row a of A: max lambda s.t.
    B^T v = lambda a, |v| <= 1.

    The optimum equals min ||Bx||_1 on the hyperplane (positive: every row is
    in B's row space), the basis stays d x d and the multipliers recover x.
    The rows' LPs share everything but their last column, so each chunk of
    rows is one stack.  A row whose recovery check fails is redone alone.

    Returns per-row arrays (x_opt, value, pivots).
    """
    m, d = B.shape
    b = B.sum(axis=0)  # from shifting v = w - 1 into w in [0, 2]
    c = np.zeros(m + 1)
    c[m] = -1.0
    ub = np.full(m + 1, 2.0)
    ub[m] = np.inf
    K = A.shape[0]
    x = np.empty((K, d))
    value = np.empty(K)
    pivots = np.empty(K, dtype=np.intp)
    for part in _chunks(K, d * (m + 1 + d)):  # a tableau is d x (m + 1 + d)
        rows = A[part]
        stack = np.empty((rows.shape[0], d, m + 1))
        stack[:, :, :m] = B.T
        stack[:, :, m] = -rows
        res = solve_lp_stack(c, stack, b, upper=ub)
        x[part], value[part], pivots[part] = res.duals, -res.value, res.pivots

    ok = (np.abs(np.sum(A * x, axis=1) - 1.0) <= 1e-6) & (
        np.abs(np.abs(x @ B.T).sum(axis=1) - value) <= np.maximum(1e-7, 1e-6 * value)
    )
    for i in np.flatnonzero(~ok):  # degenerate recovery: fall back to the literal form
        sol = _min_l1_primal(B, A[i])
        x[i], value[i], pivots[i] = sol.x_opt, sol.value, sol.iterations
    return x, value, pivots


def _matvec(M, v):
    """M[i] @ v[i] for every stack entry."""
    return np.matmul(M, v[..., None])[..., 0]


def _newton_step(M, grad, curv=None):
    """Solve (M[i]^T diag(curv[i]) M[i]) step = -M[i]^T grad[i] per stack entry.

    For sum(phi(M z + c)) with phi' = grad and phi'' = curv at the current
    residual this is the Newton step in z.  With curv omitted (all ones) and
    grad = c it is the least-squares solution argmin_z ||M z + c||_2 itself.
    """
    CM = M if curv is None else M * curv[:, :, None]
    G = np.matmul(M.transpose(0, 2, 1), CM)
    return _solve(G, -_matvec(M.transpose(0, 2, 1), grad))


def _smoothed(r, d2, p):
    return np.sum((r * r + d2) ** (p / 2.0), axis=1)


def _smoothed_derivatives(r, d2, p):
    """phi'(r) / p and phi''(r) / p for phi(r) = (r^2 + delta^2)^(p/2).

    The common factor p cancels from the Newton step.  phi'' is positive for
    every p >= 1 while delta > 0, so each normal matrix is positive definite
    whenever M[i] has full column rank.
    """
    r2 = r * r
    s = r2 + d2
    t = s ** (p / 2.0 - 2.0)
    return r * s * t, ((p - 1.0) * r2 + d2) * t


def _solve(G, rhs):
    """Solve every G[i] z = rhs[i]; singular entries fall back to lstsq alone."""
    try:
        return np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass  # redo entry by entry, through the same stacked call, so others keep their bits
    z = np.empty_like(rhs)
    for i in range(G.shape[0]):
        try:
            z[i] = np.linalg.solve(G[i : i + 1], rhs[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            z[i] = np.linalg.lstsq(G[i], rhs[i], rcond=None)[0]
    return z


_DELTAS = 10.0 ** np.arange(-2.0, -11.0, -1.0)  # 1e-2 geometrically down to 1e-10
_MAX_INNER = 60  # IRLS iterations per delta
# float64 entries of one stack (eliminated matrices or simplex tableaus); rows
# are solved in chunks of this size, which bounds working memory at a few times it
_CHUNK_ELEMENTS = 1 << 21


def _chunks(K, per_row):
    """Slices of range(K), each of at most _CHUNK_ELEMENTS // per_row rows (at least one)."""
    step = max(1, _CHUNK_ELEMENTS // per_row)
    return [slice(s, s + step) for s in range(0, K, step)]


def _minimize(B, A, p):
    """min ||B x||_p^p subject to a @ x = 1 for every row a of A (none zero).

    B's R factor gives the Gram pseudoinverse G and an orthonormal basis V of
    the row space, cut where ``pseudoinverse_gram`` cuts.  A row with an
    entry of n = a - a V^T V above 1e-6 |a|_inf is outside: value 0 at
    x = n / (a @ n), no solve.  Then p = 2 gives x = G a / (a G a) with value
    1 / (a G a), d = 1 forces x = 1 / a, p = 1 runs the stacked dual simplex
    and any other p stacked IRLS, each row on its own numbers.  Returns
    per-row arrays (x_opt, value, converged, iterations), iterations being
    simplex pivots at p = 1, Newton steps at other p and 0 without a solve.
    """
    K, d = A.shape
    R = np.linalg.qr(B, mode="r")  # R^T R = B^T B; cheaper to factor than B
    _, sv, vt = np.linalg.svd(R, full_matrices=False)
    V = vt[sv > RANK_TOL * sv[0]]
    null = A - np.einsum("ik,kj->ij", np.einsum("ij,kj->ik", A, V), V)
    outside = np.abs(null).max(axis=1) > 1e-6 * np.abs(A).max(axis=1)
    x, value = np.empty((K, d)), np.zeros(K)
    converged, iterations = np.ones(K, dtype=bool), np.zeros(K, dtype=np.intp)
    out, rest = np.flatnonzero(outside), np.flatnonzero(~outside)
    x[out] = null[out] / np.einsum("ij,ij->i", A[out], null[out])[:, None]
    inner = A[rest]
    if p == 2:
        G = pseudoinverse_gram(R)
        s = np.einsum("ij,jk,ik->i", inner, G, inner)
        x[rest], value[rest] = np.einsum("ij,jk->ik", inner, G) / s[:, None], 1.0 / s
    elif d == 1:
        x[rest] = 1.0 / inner
        value[rest] = np.sum(np.abs(B[:, 0] * x[rest]) ** p, axis=1)
    elif p == 1:
        x[rest], value[rest], iterations[rest] = _min_l1_dual(B, inner)
    else:
        x[rest], value[rest], converged[rest], iterations[rest] = _min_lp_irls(B, inner, p)
    return x, value, converged, iterations


def _min_lp_irls(B, A, p):
    """Smoothed IRLS for every row a of A: min ||B x||_p^p subject to a @ x = 1.

    Minimizes sum(phi(r)), phi(r) = (r^2 + delta^2)^(p/2), r = M z + c, with
    delta annealed from 1e-2 to 1e-10, on all rows at once: each row's
    hyperplane is eliminated into a stack entry (M, c).  Each iteration is a
    Newton step, IRLS with the weights phi''(r): the systems
    (M^T diag(phi''(r)) M) step = -M^T phi'(r) of the still-active rows are
    formed and solved as one stack, and the step is halved until the
    objective falls by a quarter of the decrease its slope predicts.  A row
    finishes a delta when one step changes the objective by at most 1e-11
    relative, and is reported not converged when it does not finish the last
    delta within _MAX_INNER steps.  Rows retire independently, so every
    row's result is bit-identical to solving it alone.  A has no zero rows
    and d >= 2.

    Returns per-row arrays (x_opt, value, converged, iterations).
    """
    K, d = A.shape
    x = np.empty((K, d))
    value = np.empty(K)
    converged = np.empty(K, dtype=bool)
    iterations = np.empty(K, dtype=np.intp)
    for part in _chunks(K, B.shape[0] * (d - 1)):
        x[part], value[part], converged[part], iterations[part] = _irls_chunk(B, A[part], p)
    return x, value, converged, iterations


def _irls_chunk(B, A, p):
    M, c, k, rest = _eliminate_hyperplanes(B, A)
    z = _newton_step(M, c)  # from z = 0, where r = c: least squares
    r = _matvec(M, z) + c
    K = A.shape[0]
    iterations = np.zeros(K, dtype=np.intp)
    converged = np.ones(K, dtype=bool)
    for delta in _DELTAS:
        d2 = delta * delta
        converged[:] = False
        act = np.arange(K)  # rows still iterating at this delta
        Ma, ca, za, ra = M, c, z, r
        obj = _smoothed(ra, d2, p)
        for _ in range(_MAX_INNER):
            grad, curv = _smoothed_derivatives(ra, d2, p)
            z_new = za + _newton_step(Ma, grad, curv)
            iterations[act] += 1
            r_new = _matvec(Ma, z_new) + ca
            obj_new = _smoothed(r_new, d2, p)
            # the objective's derivative along the whole step (negative)
            slope = p * np.sum(grad * (r_new - ra), axis=1)
            # far from the minimum a full Newton step can overshoot, on either
            # side of p = 2 (at p = 1.5 it maps a lone residual r to -r, which
            # leaves the objective unchanged); halve back towards the old point
            # until the objective falls by a quarter of what the slope predicts
            for _ in range(40):
                up = np.flatnonzero(obj_new > obj * (1.0 + 1e-12) + 0.25 * slope)
                if up.size == 0:
                    break
                z_new[up] = 0.5 * (z_new[up] + za[up])
                r_new[up] = _matvec(Ma[up], z_new[up]) + ca[up]
                obj_new[up] = _smoothed(r_new[up], d2, p)
                slope[up] *= 0.5
            done = np.abs(obj - obj_new) <= 1e-11 * (1.0 + np.abs(obj_new))
            za, ra, obj = z_new, r_new, obj_new
            if done.any():
                # retire the rows converged at this delta; copy the rest only now
                fin = act[done]
                z[fin], r[fin], converged[fin] = za[done], ra[done], True
                live = ~done
                act, Ma, ca = act[live], Ma[live], ca[live]
                za, ra, obj = za[live], ra[live], obj[live]
                if act.size == 0:
                    break
        z[act], r[act] = za, ra

    return _assemble(z, A, k, rest), np.sum(np.abs(r) ** p, axis=1), converged, iterations


def _check_columns_and_p(B, other, name, p):
    if B.shape[1] != other.shape[-1]:
        raise ValueError(
            f"shape mismatch: B has {B.shape[1]} columns, {name} has {other.shape[-1]}"
        )
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")


def min_lp_on_hyperplane(B, a, p) -> RegressionSolution:
    """Minimize ||B x||_p^p subject to a @ x = 1, for a nonzero row a and real p >= 1.

    The one-row case of the dispatcher behind ``sensitivities_wrt``, whose
    value for a is ``1 / value`` bit for bit at every p.  A row outside the
    row space of B gets value 0.0 at a null vector of B without a solve; the
    others the closed form at p = 2 or d = 1, the exact LP at p = 1 and IRLS
    at any other p.
    """
    B = as_matrix(B)
    a = as_vector(a)
    _check_columns_and_p(B, a, "a", p)
    if np.all(a == 0.0):
        raise ValueError("hyperplane row a must be nonzero")
    x, value, converged, iterations = _minimize(B, a[None, :], p)
    return RegressionSolution(
        x_opt=x[0],
        value=float(value[0]),
        status="optimal" if converged[0] else "iteration_limit",
        iterations=int(iterations[0]),
    )


def sensitivity_one(a, B, p) -> float:
    """Sensitivity of the row a with respect to B: 1 / min ||Bx||_p^p on a@x=1.

    Returns 0.0 for a zero row and inf for a row outside the row space of B.
    Same value as the row gets from ``sensitivities_wrt``.
    """
    return float(sensitivities_wrt(as_vector(a)[None, :], B, p)[0])


def sensitivities_wrt(M, B, p) -> np.ndarray:
    """Sensitivity of every row of M with respect to the matrix B.

    Zero rows get 0.0 and every other row 1 / value of ``_minimize``: inf
    for a row outside the row space of B, at every p.  A row's value does not
    depend on which rows share its batch.  Raises NonConvergenceError when
    any row's IRLS solve runs out of iterations.
    """
    M = as_matrix(M)
    B = as_matrix(B)
    _check_columns_and_p(B, M, "M", p)
    live = np.flatnonzero(np.any(M != 0.0, axis=1))
    _, values, converged, _ = _minimize(B, M[live], p)
    if not converged.all():
        raise NonConvergenceError(
            f"IRLS hit its iteration limit on {np.count_nonzero(~converged)} of"
            f" {live.size} rows at p = {p:g}"
        )
    vals = np.zeros(M.shape[0])
    vals[live] = np.divide(1.0, values, out=np.full(live.size, math.inf), where=values != 0.0)
    return vals


def sensitivities_exact(A, p) -> WeightVector:
    """Exact lp sensitivities of every row of A with respect to A itself."""
    A = require_tall_full_rank(A)
    if p == 2:
        lev = leverage_exact(A)
        return WeightVector(values=lev.values, kind="sensitivity", p=2.0)
    vals = sensitivities_wrt(A, A, p)
    return WeightVector(values=vals, kind="sensitivity", p=float(p))
