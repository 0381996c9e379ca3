"""Constrained lp regression and the sensitivities built on it.

The quantity everything reduces to is

    min ||B x||_p^p   subject to   a @ x = 1,

whose reciprocal is the sensitivity of the row ``a`` with respect to ``B``.
One private dispatcher, ``_minimize``, solves it for a stack of rows.  It
first decides, from B alone and so alike for every p, which rows leave the
row space of B: their minimum is 0, at a null vector of B, and costs no
solve.  Of the rest, p = 2 has a closed form in the Gram pseudoinverse.  At
any other p a rank-deficient B is solved once in the coordinates of its row
space, where it has full column rank; there d = 1 forces x = 1 / a, and
every other case runs one driver, ``_min_lp_irls``: iteratively reweighted
least squares (IRLS) on a smoothed objective.  The weights are Newton's: each
iteration weights the least-squares system by the smoothed objective's
second derivative and solves it for a step, halved until the objective falls
enough, so a row converges quadratically once near its minimum.
``min_lp_on_hyperplane`` is the one-row case and reports a solve that ran
out of iterations; ``sensitivities_wrt`` raises NonConvergenceError instead.

At p = 1 the problem is a linear program, and IRLS only leads the way to its
optimal vertex.  After each smoothing stage a crossover takes the d - 1 rows
of B with the smallest residuals, solves for the vertex where they vanish
and for the dual multipliers of that vertex.  Multipliers in [-1, 1] prove
the vertex optimal by weak duality: the row retires with it and with its
exact value.  After the last stage the rows still open get the crossover
once more, alone, with a vertex that survives repeated rows and a dual that
survives degenerate vertices; scipy's HiGHS solves whatever is left.

IRLS eliminates each row's hyperplane into one entry of a stack of
(m, d - 1) matrices, and every iteration forms and solves the Newton systems
of the rows still active as one stack; the crossover is one stack of d x d
systems.  Rows retire as soon as they finish, and no row's arithmetic
depends on another's, so a row gets bit-identical results whether it is
solved alone or in any batch.  Working memory is capped by solving the rows
in chunks of at most ``_CHUNK_ELEMENTS`` stacked matrix entries.
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
    tall_full_rank_basis,
)
from .leverage import leverage_exact


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


def _solve(G, rhs, lstsq=True):
    """Solve every G[i] z = rhs[i]; singular entries are redone alone.

    A singular entry falls back to least squares, or with ``lstsq`` off
    comes back as nan.  Other entries keep their bits either way.
    """
    try:
        return np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass  # redo entry by entry, through the same stacked call, so others keep their bits
    z = np.full(rhs.shape, np.nan)
    for i in range(G.shape[0]):
        try:
            z[i] = np.linalg.solve(G[i : i + 1], rhs[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            if lstsq:
                z[i] = np.linalg.lstsq(G[i], rhs[i], rcond=None)[0]
    return z


_DELTAS = 10.0 ** np.arange(-2.0, -11.0, -1.0)  # 1e-2 geometrically down to 1e-10
_MAX_INNER = 60  # IRLS iterations per delta
_CERT_TOL = 1e-9  # round-off a p = 1 vertex certificate allows, relative
# float64 entries of one stack of eliminated matrices; rows are solved in
# chunks of this size, which bounds working memory at a few times it
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
    1 / (a G a).  Any other p on a rank-deficient B (V has fewer than d rows)
    is solved in the coordinates y = x V^T of the row space, where B V^T has
    full column rank and every inside row stays inside, so no second rank
    decision is made; x = y V maps back.  In the coordinates solved in (x
    itself on a full-rank B), one coordinate forces y = 1 / a and any more
    run ``_min_lp_irls``, each row on its own numbers.  Returns per-row arrays
    (x_opt, value, converged, iterations), iterations being Newton steps
    (HiGHS iterations on a p = 1 row HiGHS solves) and 0 without a solve.
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
    elif rest.size:
        reduced = V.shape[0] < d
        if reduced:
            # a rank-deficient B makes vertices and Newton systems singular;
            # B V^T has full column rank and no row of A V^T leaves its row space
            B, inner = B @ V.T, np.einsum("ij,kj->ik", inner, V)
        if inner.shape[1] == 1:
            y = 1.0 / inner
            value[rest] = np.sum(np.abs(B[:, 0] * y) ** p, axis=1)
        else:
            y, value[rest], converged[rest], iterations[rest] = _min_lp_irls(B, inner, p)
        x[rest] = np.einsum("ik,kj->ij", y, V) if reduced else y
    return x, value, converged, iterations


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    value: float
    pivots: int


def solve_lp(B, a) -> LPResult:
    """min ||B x||_1 subject to a @ x = 1 by scipy's HiGHS, on the primal LP
    over (x, t): min sum(t) subject to -t <= B x <= t, a @ x = 1.

    ``value`` is ||B x||_1 at the returned x and ``pivots`` HiGHS's iteration
    count.  Only the rows no vertex crossover certifies get here, so
    scipy.optimize is imported here, on first use, not with the package.
    """
    from scipy.optimize import linprog

    m, d = B.shape
    eye = np.eye(m)
    res = linprog(
        np.concatenate([np.zeros(d), np.ones(m)]),
        A_ub=np.block([[B, -eye], [-B, -eye]]),
        b_ub=np.zeros(2 * m),
        A_eq=np.concatenate([a, np.zeros(m)])[None, :],
        b_eq=[1.0],
        bounds=[(None, None)] * d + [(0, None)] * m,
        method="highs",
    )
    if res.status != 0:
        raise NonConvergenceError(f"HiGHS failed on an l1 hyperplane LP: {res.message}")
    x = res.x[:d]
    return LPResult(x=x, value=float(np.abs(B @ x).sum()), pivots=int(res.nit))


def _crossover(B, A, r):
    """Certify, for every row a of A, the vertex its residuals r point to.

    S is the d - 1 rows of B with the smallest |r|, in index order.  The
    vertex x solves [a; B_S] x = e_1.  With v_N = sign(B_N x) on the other
    rows, the transposed system B_S^T v_S - lam a = -B_N^T v_N gives the
    rest of a dual point v: B^T v = lam a.  When |v| <= 1, weak duality
    makes lam a lower bound on min ||B x||_1 and ||B x||_1 is an upper one;
    the row is certified when |v_S| <= 1 and the two bounds agree, both up
    to _CERT_TOL.  A singular [a; B_S] certifies nothing.  Returns per-row
    arrays (certified, x, ||B x||_1).
    """
    K, d = A.shape
    S = np.sort(np.argpartition(np.abs(r), d - 2, axis=1)[:, : d - 1], axis=1)
    vertex = np.empty((K, d, d))
    vertex[:, 0], vertex[:, 1:] = A, B[S]
    e1 = np.zeros((K, d))
    e1[:, 0] = 1.0
    x = _solve(vertex, e1, lstsq=False)  # nan where [a; B_S] is singular
    res = np.matmul(B, x[:, :, None])[:, :, 0]
    value = np.sum(np.abs(res), axis=1)
    v = np.sign(res)
    np.put_along_axis(v, S, 0.0, axis=1)
    dual = _solve(vertex.transpose(0, 2, 1), -np.matmul(v[:, None, :], B)[:, 0], lstsq=False)
    certified = (np.abs(dual[:, 1:]).max(axis=1) <= 1.0 + _CERT_TOL) & (
        np.abs(value + dual[:, 0]) <= _CERT_TOL * value
    )
    return certified, x, value


def _certify_alone(B, a, r):
    """``_crossover`` for one row, robust to degenerate vertices.

    S takes rows of B by ascending |r|, each only if it is independent of a
    and of the rows already taken, so repeated rows cannot make the vertex
    singular.  At the vertex x every row of S vanishes, and maybe more: the
    dual point keeps v = sign(B x) off the zero set Z and solves
    B_Z^T v_Z = lam a - B_N^T v_N, lam = ||B x||_1, by least squares, fixing
    each entry that leaves [-1, 1] at +-1 and solving again for the rest.
    The vertex is optimal when that v_Z solves the system, up to _CERT_TOL.
    Returns (x, ||B x||_1), or None.
    """
    d = B.shape[1]
    basis = np.empty((d, d))
    basis[0] = a / np.linalg.norm(a)
    S = []
    for j in np.argsort(np.abs(r), kind="stable"):
        q = basis[: len(S) + 1]
        w = B[j] - (q @ B[j]) @ q
        w -= (q @ w) @ q  # twice is enough (Gram-Schmidt)
        norm = np.linalg.norm(w)
        if norm > _CERT_TOL * np.linalg.norm(B[j]):
            basis[len(S) + 1] = w / norm
            S.append(j)
            if len(S) == d - 1:
                break
    if len(S) < d - 1:
        return None
    S = np.sort(S)
    try:
        x = np.linalg.solve(np.vstack([a, B[S]]), np.eye(d)[0])
    except np.linalg.LinAlgError:
        return None
    res = B @ x
    value = float(np.abs(res).sum())
    zero = np.abs(res) <= _CERT_TOL * np.linalg.norm(B, axis=1) * np.linalg.norm(x)
    zero[S] = True
    G, h = B[zero].T, value * a - B[~zero].T @ np.sign(res[~zero])
    v, fixed = np.zeros(G.shape[1]), np.zeros(G.shape[1], dtype=bool)
    while not fixed.all():  # least squares; entries beyond [-1, 1] are fixed at +-1
        v[~fixed] = np.linalg.lstsq(G[:, ~fixed], h - G[:, fixed] @ v[fixed], rcond=None)[0]
        over = np.abs(v) > 1.0
        if not over.any():
            break
        v[over], fixed = np.sign(v[over]), fixed | over
    if np.all(np.abs(G @ v - h) <= _CERT_TOL * (np.abs(B).sum(axis=0) + value * np.abs(a))):
        return x, value
    return None


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
    row's result is bit-identical to solving it alone.  B has full column
    rank, A no zero rows and d >= 2.

    At p = 1 the open rows try ``_crossover`` after each delta, and a row it
    certifies retires for good with the vertex and its value.  A row still
    open after the last delta gets ``_certify_alone`` from its last IRLS
    point, and HiGHS if that fails too, so every row converges; iterations
    then count HiGHS's iterations on a row HiGHS solves.

    Returns per-row arrays (x_opt, value, converged, iterations).
    """
    K, d = A.shape
    x = np.empty((K, d))
    value = np.empty(K)
    converged = np.empty(K, dtype=bool)
    iterations = np.empty(K, dtype=np.intp)
    for part in _chunks(K, B.shape[0] * (d - 1)):
        x[part], value[part], converged[part], iterations[part] = _irls_chunk(B, A[part], p)
    if p == 1:
        for i in np.flatnonzero(~converged):
            vertex = _certify_alone(B, A[i], B @ x[i])
            if vertex is None:
                lp = solve_lp(B, A[i])
                vertex, iterations[i] = (lp.x, lp.value), lp.pivots
            x[i], value[i] = vertex
        converged[:] = True
    return x, value, converged, iterations


def _irls_chunk(B, A, p):
    M, c, k, rest = _eliminate_hyperplanes(B, A)
    z = _newton_step(M, c)  # from z = 0, where r = c: least squares
    r = _matvec(M, z) + c
    K = A.shape[0]
    x, value = np.empty(A.shape), np.empty(K)
    iterations = np.zeros(K, dtype=np.intp)
    converged = np.ones(K, dtype=bool)
    todo = np.arange(K)  # the open rows; M, c, z and r hold theirs alone
    if p == 1:
        # smooth each row relative to its largest starting residual: the path
        # then does not depend on the scale of B or a
        scale = np.abs(r).max(axis=1, keepdims=True)
        M, c, r = M / scale[:, :, None], c / scale, r / scale
    for delta in _DELTAS:
        d2 = delta * delta
        converged[todo] = False
        act = np.arange(todo.size)  # rows still iterating at this delta
        Ma, ca, za, ra = M, c, z, r
        obj = _smoothed(ra, d2, p)
        for _ in range(_MAX_INNER):
            grad, curv = _smoothed_derivatives(ra, d2, p)
            z_new = za + _newton_step(Ma, grad, curv)
            iterations[todo[act]] += 1
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
                z[fin], r[fin], converged[todo[fin]] = za[done], ra[done], True
                live = ~done
                act, Ma, ca = act[live], Ma[live], ca[live]
                za, ra, obj = za[live], ra[live], obj[live]
                if act.size == 0:
                    break
        z[act], r[act] = za, ra
        if p == 1:
            ok, x_ok, value_ok = _crossover(B, A[todo], r)
            x[todo[ok]], value[todo[ok]], converged[todo[ok]] = x_ok[ok], value_ok[ok], True
            if ok.any():
                keep = ~ok
                todo, M, c, z, r = todo[keep], M[keep], c[keep], z[keep], r[keep]
                if todo.size == 0:
                    break

    x[todo] = _assemble(z, A[todo], k[todo], rest[todo])
    if p == 1:  # not certified: _min_lp_irls finishes these rows from x
        converged[todo] = False
    else:
        value[todo] = np.sum(np.abs(r) ** p, axis=1)
    return x, value, converged, iterations


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
    others the closed form at p = 2 or d = 1, IRLS at any other p and, at
    p = 1, the LP's optimal vertex, certified by a dual point (or solved by
    HiGHS).  ``iterations`` counts Newton steps, HiGHS's iterations where
    HiGHS solved the LP, and 0 without a solve; at p = 1 ``status`` is
    always "optimal".
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
    any row's IRLS solve runs out of iterations at p != 1 (at p = 1 every
    value is a certified or HiGHS-solved LP optimum).
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
    """Exact lp sensitivities of every row of A with respect to A itself.

    At p = 2 these are the leverage scores, read off the rank gate's QR.
    """
    gated = tall_full_rank_basis(A)
    A = require_tall_full_rank(gated)
    if p == 2:
        lev = leverage_exact(gated)
        return WeightVector(values=lev.values, kind="sensitivity", p=2.0)
    vals = sensitivities_wrt(A, A, p)
    return WeightVector(values=vals, kind="sensitivity", p=float(p))
