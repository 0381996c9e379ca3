"""Constrained lp regression and the sensitivities built on it.

The quantity everything reduces to is

    min ||B x||_p^p   subject to   a @ x = 1,

whose reciprocal is the sensitivity of the row ``a`` with respect to ``B``.
One private dispatcher, ``_minimize``, solves it for a stack of rows: a row
outside the row space of B has minimum 0 at no solve, p = 2 and d = 1 have
closed forms, and every other case runs one driver, ``_min_lp_irls``:
iteratively reweighted least squares (IRLS) with Newton's weights on a
smoothed objective.  ``min_lp_on_hyperplane`` is the one-row case and reports
a solve that ran out of iterations; ``sensitivities_wrt`` raises
NonConvergenceError instead.

At p = 1 the problem is a linear program, and IRLS only leads the way to its
optimal vertex.  After each smoothing stage one stacked crossover takes the
d - 1 rows of B with the smallest residuals, solves for the vertex where
they vanish and for its dual multipliers; multipliers in [-1, 1] prove it
optimal by weak duality, and the row retires with its exact value.  Repeated
rows and vertices where more residuals vanish get an independent set of rows
and a zero-set dual in the same pass.  HiGHS solves any row still open.

At every other p the crossover's transposed system brackets the minimum.
After each smoothing stage from delta = 1e-3 on, S is again the d - 1 rows
of B with the smallest residuals (never one parallel to a), v = sign(r)
|r|^(p - 1) off S, and one stacked solve of B_S^T v_S - lam a = -B_N^T v_N
completes a dual point.  By Hoelder's inequality (lam / ||v||_q)^p, q =
p / (p - 1), bounds the minimum below, and sum |r|^p bounds it above; a row
whose two bounds agree to 1e-12 relative retires with its value, and only
the others run the remaining stages.

IRLS eliminates each row's hyperplane into one entry of a stack of
(d - 1, m) matrices, and every iteration forms and solves the Newton systems
of the rows still active as one stack; the crossover and the bracket are
each one stack of d x d systems.  A smoothing stage ends for a row once one
step changes its objective by at most 1e-11 relative, at p != 1 by
min(1e-6, delta^1.5) (``_STAGE_RTOL``).  A halved step's residual is the
midpoint of the old and the new one, so the line search reads no stack
again.  Rows retire as soon as they finish, and no row's arithmetic depends
on another's, so a row gets bit-identical results whether it is solved
alone or in any batch.  Working memory is capped by solving the rows in
chunks of at most ``_CHUNK_ELEMENTS`` stacked matrix entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (  # noqa: F401 - perfbench/tracer.py wraps regress.pseudoinverse_gram
    FactoredMatrix,
    NonConvergenceError,
    WeightVector,
    as_matrix,
    as_vector,
    check_exponent,
    check_tall_full_rank,
    pseudoinverse_gram,
    require_tall_full_rank,
)
from .leverage import leverage_exact


@dataclass(frozen=True)
class RegressionSolution:
    x_opt: np.ndarray
    value: float
    status: str  # "optimal" or "iteration_limit"
    iterations: int


def _eliminate_hyperplanes(Bt, A):
    """Substitute each row's largest-|a_j| coordinate out of  a @ x = 1.

    Bt is B^T, C-contiguous, so each coordinate's column of B is one
    contiguous row of it.  For row i of A returns M[i], c[i] with  B x =
    z @ M[i] + c[i],  where z are the coordinates rest[i] and x_k = (1 -
    a_rest @ z) / a_k for k = k[i].  M[i] is (d - 1, m), so per-residual
    weights broadcast along its rows.  Every stack entry is computed from
    its own row alone.

    M is filled one (K, m) slice per eliminated coordinate: one expression for
    the whole stack would put two temporaries of M's size next to it, and M
    is the largest array an IRLS chunk holds.
    """
    K, d = A.shape
    k = np.argmax(np.abs(A), axis=1)  # ties resolve to the lowest index
    j = np.arange(d - 1)
    rest = j + (j >= k[:, None])
    c = Bt[k] / A[np.arange(K), k][:, None]
    a_rest = np.take_along_axis(A, rest, axis=1)
    M = np.empty((K, d - 1, Bt.shape[1]))
    for col in range(d - 1):
        np.subtract(Bt[rest[:, col]], a_rest[:, col, None] * c, out=M[:, col])
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


def _residual(M, z, c):
    """z[i] @ M[i] + c[i] for every stack entry."""
    r = np.matmul(z[:, None, :], M)[:, 0]
    r += c
    return r


def _newton_step(M, grad, curv=None, work=None):
    """Solve (M[i] diag(curv[i]) M[i]^T) step = -M[i] grad[i] per stack entry.

    For sum(phi(z @ M + c)) with phi' = grad and phi'' = curv at the current
    residual this is the Newton step in z.  With curv omitted (all ones) and
    grad = c it is the least-squares solution argmin_z ||z @ M + c||_2 itself.
    With curv, M diag(curv) is written into ``work``, a buffer of at least
    M's size, not into a fresh array.
    """
    CM = M if curv is None else np.multiply(M, curv[:, None, :], out=work[: M.shape[0]])
    G = np.matmul(CM, M.transpose(0, 2, 1))
    rhs = -_matvec(M, grad)
    step, singular = _solve(G, rhs)
    for i in singular:
        step[i] = np.linalg.lstsq(G[i], rhs[i], rcond=None)[0]
    return step


def _smoothed(r, d2, p):
    """The terms (r^2 + delta^2)^(p/2) of the smoothed objective."""
    t = r * r
    t += d2
    return np.power(t, p / 2.0, out=t)


def _smoothed_derivatives(r, d2, p, t):
    """phi'(r) / p and phi''(r) / p for phi(r) = (r^2 + delta^2)^(p/2), from
    the terms t = ``_smoothed(r, d2, p)``, so no second power is taken.

    The common factor p cancels from the Newton step.  phi'' is positive for
    every p >= 1 while delta > 0, so each normal matrix is positive definite
    whenever M[i] has full row rank.
    """
    # in place: at a few hundred kB per array a fresh one costs more than the
    # arithmetic
    curv = r * r
    s = curv + d2
    u = t / s  # s^(p/2 - 1)
    curv *= p - 1.0
    curv += d2
    curv *= u
    curv /= s
    return np.multiply(r, u, out=u), curv


def _solve(G, rhs):
    """Solve every G[i] z = rhs[i] as one stack.  Returns z and the entries
    whose LU met an exactly zero pivot: those come back nan, and every other
    entry keeps the bits it gets alone."""
    try:
        return np.linalg.solve(G, rhs[..., None])[..., 0], ()
    except np.linalg.LinAlgError:
        pass  # det runs the same LU per entry and is 0.0 exactly where solve failed
    z, ok = np.full(rhs.shape, np.nan), np.linalg.det(G) != 0.0
    if ok.any():
        z[ok] = np.linalg.solve(G[ok], rhs[ok, :, None])[..., 0]
    return z, np.flatnonzero(~ok)


_DELTAS = 10.0 ** np.arange(-2.0, -11.0, -1.0)  # 1e-2 geometrically down to 1e-10
_MAX_INNER = 60  # IRLS iterations per delta
# at p != 1 a row ends a delta once one step changes the objective by at most
# min(_STAGE_RTOL, delta^1.5) relative, never less than 1e-11, which is what
# the small deltas, the last among them, and every p = 1 delta take.  Earlier
# points only start the next delta; the delta^1.5 cap is for p near 1, where a
# flat 1e-6 ended stages before their near-zero residuals settled, and rows
# at p = 1.01 then ran out of steps at the last delta
_STAGE_RTOL = 1e-6
_CERT_TOL = 1e-9  # round-off a p = 1 vertex certificate allows, relative
_BRACKET_RTOL = 1e-12  # relative gap at which a p != 1 row's bracket retires it
# float64 entries of one stack of eliminated matrices; rows are solved in
# chunks of this size, which bounds working memory at a few times it
_CHUNK_ELEMENTS = 1 << 21


def _minimize(B, A, p):
    """min ||B x||_p^p subject to a @ x = 1 for every row a of A (none zero).

    B's ``FactoredMatrix`` (built here unless B is one) gives one d x r
    matrix W with W W^T the Gram's pseudoinverse, and makes the one rank
    decision.  Where ``certified_cholesky`` proves B has full column rank,
    W = R^-1, every row lies in the row space, and every p is solved in x
    itself.  Where it refuses, the gate's rule on a pivoted QR decides the
    rank r, V (r x d) is an orthonormal basis of the row space and
    W = V^T / sigma; a row with an entry of n = a - a V^T V above
    1e-6 |a|_inf is outside: value 0 at x = n / (a @ n), no solve.  At
    p = 2 every inside row has the closed form u = a W: value 1 / |u|^2 at
    x = u W^T / |u|^2.  At any other p a refused B, of full rank or not, is
    solved in the whitened coordinates y of B W, whose columns are
    orthonormal up to rounding, with the rows a W, and x = y W^T maps back:
    no Newton system or vertex then inherits the conditioning of B, and a
    zero or dependent column makes none singular.  In the coordinates solved
    in, one coordinate forces y = 1 / a and any more run ``_min_lp_irls``,
    each row on its own numbers.  Returns per-row arrays (x_opt, value,
    converged, iterations), iterations being Newton steps (HiGHS iterations
    on a p = 1 row HiGHS solves) and 0 without a solve.

    Everything is solved against S = 2^-e B, e the binary exponent of B's
    largest entry, with A scaled by the same 2^-e and x by the same factor
    at the end: that is exact in floating point and keeps B x and a @ x,
    while the factorizations and solves see entries of order one, so a
    result does not depend on the input's scale.  Given a
    ``FactoredMatrix``, as the regression reduction gives it, B is neither
    rescaled nor factored here.  ``_min_lp_irls`` makes one pass over the
    matrix it solves against for its row norms, however many chunks it
    solves, and each chunk one for its transpose.
    """
    K, d = A.shape
    B = FactoredMatrix.of(B)
    S, W, V = B.s, B.w, B.basis
    A = np.ldexp(A, -B.e)
    x, value = np.empty((K, d)), np.zeros(K)
    converged, iterations = np.ones(K, dtype=bool), np.zeros(K, dtype=np.intp)
    rest = np.arange(K)
    if V is not None:
        null = A - np.einsum("ik,kj->ij", np.einsum("ij,kj->ik", A, V), V)
        outside = np.abs(null).max(axis=1) > 1e-6 * np.abs(A).max(axis=1)
        out, rest = np.flatnonzero(outside), np.flatnonzero(~outside)
        x[out] = null[out] / np.einsum("ij,ij->i", A[out], null[out])[:, None]
    inner = A[rest]
    if p == 2:
        # G = W W^T, so a G a = |u|^2 and a G = u W^T for u = a W;
        # one stacked product per row, as one GEMM would not be batch-invariant
        u = np.matmul(inner[:, None, :], W)
        s = np.einsum("ikj,ikj->i", u, u)
        x[rest], value[rest] = np.matmul(u, W.T)[:, 0] / s[:, None], 1.0 / s
    elif rest.size:
        if V is not None:  # whitened: S W has orthonormal columns
            S, inner = S @ W, np.einsum("ij,jk->ik", inner, W)
        if inner.shape[1] == 1:
            y = 1.0 / inner
            value[rest] = np.sum(np.abs(S[:, 0] * y) ** p, axis=1)
        else:
            y, value[rest], converged[rest], iterations[rest] = _min_lp_irls(S, inner, p)
        x[rest] = y if V is None else np.einsum("ik,jk->ij", y, W)
    return np.ldexp(x, -B.e), value, converged, iterations


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
    The constraint matrix is sparse: its two m x m identity blocks, dense,
    would take 16 m^2 bytes (4 GB at m = 16000).
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    m, d = B.shape
    eye = sp.eye(m)
    res = linprog(
        np.concatenate([np.zeros(d), np.ones(m)]),
        A_ub=sp.bmat([[B, -eye], [-B, -eye]], format="csc"),
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


def _crossover(B, A, S, key, cut, last):
    """Certify, for every row a of A, the vertex its residuals r point to.

    S is the chunk's d - 1 rows of B of smallest ``key`` (|r|, inf on rows
    parallel to a), sorted here; the vertex x solves [a; B_S] x = e_1.  With
    v_N = sign(B_N x) off S, B_S^T v_S - lam a = -B_N^T v_N gives the rest
    of a dual point v: B^T v = lam a.  When |v| <= 1, weak duality makes lam
    a lower bound on min ||B x||_1 and ||B x||_1 is an upper one; the row is
    certified when |v_S| <= 1 and the two bounds agree, up to _CERT_TOL.
    They disagree where [a; B_S] is singular or nearly so (two of the
    smallest |r| copy one row, say).  Those rows, and at the ``last`` delta
    every open row, retry with the S of ``_independent_rows`` and, where
    more than d - 1 residuals vanish (|B_j x| <= cut_j ||x||), with
    ``_zero_set_dual``.  Returns per-row arrays (certified, x, ||B x||_1).
    """
    d = A.shape[1]
    S = np.sort(S, axis=1)
    certified, agree, x, res, value = _vertex(B, A, S)
    again = np.flatnonzero(~certified if last else ~agree)
    if again.size == 0:
        return certified, x, value
    S[again], found = _independent_rows(B, A[again], key[again], cut)
    again = again[found]  # an unchanged S solves the same systems to the same bits
    certified[again], _, x[again], res[again], value[again] = _vertex(B, A[again], S[again])
    again = again[~certified[again]]
    zero = np.abs(res[again]) <= np.linalg.norm(x[again], axis=1)[:, None] * cut
    more = np.count_nonzero(zero, axis=1) > d - 1
    i, zero = again[more], zero[more]
    np.put_along_axis(zero, S[i], True, axis=1)
    certified[i] = _zero_set_dual(B, A[i], res[i], value[i], zero)
    return certified, x, value


def _vertex(B, A, S):
    """``_crossover``'s vertex and square dual: per-row arrays (certified,
    bounds agree, x (nan where [a; B_S] is singular), B x, ||B x||_1)."""
    K, d = A.shape
    vertex = np.concatenate([A[:, None], B[S]], axis=1)  # [a; B_S] per row
    x, _ = _solve(vertex, np.eye(1, d).repeat(K, axis=0))  # e_1 per row
    res = np.matmul(B, x[:, :, None])[:, :, 0]
    value = np.sum(np.abs(res), axis=1)
    v = np.sign(res)
    np.put_along_axis(v, S, 0.0, axis=1)
    dual = _active_set_dual(vertex, B, v)
    agree = np.abs(value + dual[:, 0]) <= _CERT_TOL * value
    return agree & (np.abs(dual[:, 1:]).max(axis=1) <= 1.0 + _CERT_TOL), agree, x, res, value


def _active_set_dual(vertex, B, v):
    """Solve B_S^T v_S - lam a = -B_N^T v_N, the transposed system of the
    rows of ``vertex`` = [a; B_S], for every row; v is zero on S.  Returns
    (-lam, v_S) per row, nan where [a; B_S] is singular."""
    dual, _ = _solve(vertex.transpose(0, 2, 1), -np.matmul(v[:, None, :], B)[:, 0])
    return dual


def _bracket(B, A, r, S, p):
    """Bounds lo <= min ||B x||_p^p (subject to a @ x = 1) <= hi at p > 1.

    r = B x at a point x of the hyperplane, so hi = sum |r|^p.  S is the
    chunk's active set, the d - 1 rows of smallest |r| but those parallel
    to a; v_N = sign(r) |r|^(p - 1) off S, and ``_active_set_dual``
    completes v with B^T v = lam a.  Hoelder's inequality gives
    lam = v @ B x <= ||v||_q ||B x||_p on the whole hyperplane,
    q = p / (p - 1), so for lam > 0 lo = (lam / ||v||_q)^p (0 otherwise);
    at the minimum v is the gradient and the two meet.  r is divided by its
    largest |r| first and v_S by its largest entry above 1, so no power
    overflows however large q is, and |r|^(p - 1) is the one power taken
    per residual: off S, |v|^q = |r|^p.  Returns per-row arrays (lo, hi).
    """
    rho = np.abs(r)
    top = rho.max(axis=1)
    rho /= top[:, None]
    v = rho ** (p - 1.0)
    mass = rho * v  # |r|^p / top^p
    hi = mass.sum(axis=1)
    np.copysign(v, r, out=v)
    np.put_along_axis(v, S, 0.0, axis=1)
    off_s = hi - np.take_along_axis(mass, S, axis=1).sum(axis=1)  # ||v_N||_q^q
    dual = _active_set_dual(np.concatenate([A[:, None], B[S]], axis=1), B, v)
    v_s = np.abs(dual[:, 1:])
    q = p / (p - 1.0)
    big = np.maximum(v_s.max(axis=1), 1.0)
    norm = big * (off_s * big**-q + ((v_s / big[:, None]) ** q).sum(axis=1)) ** (1.0 / q)
    lam = -dual[:, 0]
    # 0 where lam <= 0, or nan from a singular [a; B_S]
    lo = np.where(lam > 0.0, (np.maximum(lam, 0.0) / norm) ** p, 0.0)
    return lo, hi * top**p


def _independent_rows(B, A, key, cut):
    """Per row a of A, the d - 1 rows of B of smallest ``key`` that are each
    independent of a and of the rows taken before them.

    Two Gram-Schmidt passes against the basis so far leave w of B_j, and
    B_j is taken when ||w|| > cut_j = _CERT_TOL ||B_j||, so repeated rows
    cannot make [a; B_S] singular.  All rows walk as one stack.  Returns S,
    in index order, and whether each row found d - 1.
    """
    K, d = A.shape
    order = np.argsort(key, axis=1, kind="stable")
    basis = np.zeros((K, d, d))  # rows not filled yet are zero and project nothing
    basis[:, 0] = A / np.linalg.norm(A, axis=1)[:, None]
    S, taken = np.zeros((K, d - 1), dtype=np.intp), np.zeros(K, dtype=np.intp)
    walking = np.arange(K)
    for t in range(B.shape[0]):
        j, q = order[walking, t], basis[walking]
        w = B[j] - _matvec(q.transpose(0, 2, 1), _matvec(q, B[j]))
        w -= _matvec(q.transpose(0, 2, 1), _matvec(q, w))  # twice is enough
        norm = np.sqrt(np.einsum("ij,ij->i", w, w))
        ok = norm > cut[j]
        i, n = walking[ok], taken[walking[ok]]
        basis[i, n + 1], S[i, n] = w[ok] / norm[ok, None], j[ok]
        taken[i] += 1
        walking = walking[taken[walking] < d - 1]
        if walking.size == 0:
            break
    return np.sort(S, axis=1), taken == d - 1


def _zero_set_dual(B, A, res, value, zero):
    """Certify vertices x whose residuals vanish on the zero set Z.

    The dual point keeps v = sign(B x) off Z and solves
    B_Z^T v_Z = lam a - B_N^T v_N, lam = ||B x||_1, by least squares, fixing
    each entry that leaves [-1, 1] at +-1 and solving again for the rest.
    The vertex is optimal when that v_Z solves the system, up to _CERT_TOL.
    Each row's system spans all m rows of B, zero off Z: its own in any batch.
    """
    h = value[:, None] * A - np.matmul(np.where(zero, 0.0, np.sign(res))[:, None, :], B)[:, 0]
    G = B.T * zero[:, None, :]  # B_Z^T per row
    v, fixed, solving = np.zeros(zero.shape), ~zero, np.arange(A.shape[0])  # v is 0 off Z
    while solving.size:
        free, Gs, vs = ~fixed[solving], G[solving], v[solving]
        rhs = h[solving] - _matvec(Gs, np.where(free, 0.0, vs))
        vs = np.where(free, _matvec(np.linalg.pinv(Gs * free[:, None, :]), rhs), vs)
        over = np.abs(vs) > 1.0
        v[solving], fixed[solving] = np.where(over, np.sign(vs), vs), fixed[solving] | over
        solving = solving[over.any(axis=1) & ~fixed[solving].all(axis=1)]
    tol = _CERT_TOL * (np.abs(B).sum(axis=0) + value[:, None] * np.abs(A))
    return np.all(np.abs(_matvec(G, v) - h) <= tol, axis=1)


def _min_lp_irls(B, A, p):
    """Smoothed IRLS for every row a of A: min ||B x||_p^p subject to a @ x = 1.

    Minimizes sum(phi(r)), phi(r) = (r^2 + delta^2)^(p/2), r = z @ M + c,
    with delta annealed from 1e-2 to 1e-10, on all rows at once: each row's
    hyperplane is eliminated into a stack entry (M, c).  Each iteration is a
    Newton step, IRLS with the weights phi''(r): the systems
    (M diag(phi''(r)) M^T) step = -M phi'(r) of the still-active rows are
    formed and solved as one stack, and the step is halved, its residual
    the midpoint of the old and the new one, until the objective falls by a
    quarter of the decrease its slope predicts.  A row finishes a delta when
    one step changes the objective by at most 1e-11 relative (at p != 1 by
    min(_STAGE_RTOL, delta^1.5)), and is reported not converged when it does
    not finish the last delta within _MAX_INNER steps.  B has full column
    rank, A no zero rows and d >= 2.

    After each delta but the first the open rows are checked, and a row the
    check certifies retires for good, converged even if that delta ran out
    of steps.  At p != 1 the check is ``_bracket``: the row retires with
    its IRLS point once lo and hi agree to _BRACKET_RTOL; a row never
    certified runs every delta.  At p = 1 (checked after the first delta
    too) it is ``_crossover``, and the row retires with the vertex and its
    value; HiGHS solves a row still open after the last delta, so every row
    converges, and its iterations count HiGHS's.  Returns per-row arrays
    (x_opt, value, converged, iterations), allocated here once: each chunk
    of rows writes its own slices of them in place.
    """
    K, d = A.shape
    x, value = np.empty((K, d)), np.empty(K)
    converged, iterations = np.empty(K, dtype=bool), np.zeros(K, dtype=np.intp)
    # one pass over B per call, not per chunk: its row norms
    cut = _CERT_TOL * np.linalg.norm(B, axis=1)
    step = max(1, _CHUNK_ELEMENTS // (B.shape[0] * (d - 1)))  # rows per chunk
    for start in range(0, K, step):
        part = slice(start, start + step)
        _irls_chunk(B, A[part], cut, p, x[part], value[part], converged[part], iterations[part])
    return x, value, converged, iterations


def _irls_chunk(B, A, cut, p, x, value, converged, iterations):
    """``_min_lp_irls`` on one chunk of rows, written into its slices x, value,
    converged and iterations of the per-row outputs.  The chunk builds its
    own B^T, whose contiguous rows the elimination gathers in place of B's
    strided columns; it is B's size, and dies once the chunk's rows are
    eliminated, so no frame holds it in the Newton steps."""
    d = A.shape[1]
    M, c, k, rest = _eliminate_hyperplanes(np.ascontiguousarray(B.T), A)
    z = _newton_step(M, c)  # from z = 0, where r = c: least squares
    r = _residual(M, z, c)
    todo = np.arange(A.shape[0])  # the open rows; M, c, z and r hold theirs alone
    # B_j parallel to a: B_j x = t (a @ x) = t never vanishes
    shut = np.einsum("ijk,ijk->ik", M, M) <= cut * cut
    if p == 1:
        # smooth each row relative to its largest starting residual: the path
        # then does not depend on the scale of B or a
        scale = np.abs(r).max(axis=1, keepdims=True)
        M /= scale[:, :, None]
        c /= scale
        r /= scale
    work = np.empty_like(M)  # every Newton step's M diag(phi'')
    for delta in _DELTAS:
        d2 = delta * delta
        rtol = 1e-11 if p == 1 else min(_STAGE_RTOL, max(delta**1.5, 1e-11))
        converged[todo] = False
        act = np.arange(todo.size)  # rows still iterating at this delta
        Ma, ca, za, ra = M, c, z, r
        t = _smoothed(ra, d2, p)
        obj = t.sum(axis=1)
        grad, curv = _smoothed_derivatives(ra, d2, p, t)
        for _ in range(_MAX_INNER):
            z_new = za + _newton_step(Ma, grad, curv, work)
            iterations[todo[act]] += 1
            r_new = _residual(Ma, z_new, ca)
            t = _smoothed(r_new, d2, p)
            obj_new = t.sum(axis=1)
            # the objective's derivative along the whole step (negative)
            moved = r_new - ra
            moved *= grad
            slope = p * moved.sum(axis=1)
            # far from the minimum a full Newton step can overshoot, on either
            # side of p = 2 (at p = 1.5 it maps a lone residual r to -r, which
            # leaves the objective unchanged); halve back towards the old point
            # until the objective falls by a quarter of what the slope predicts.
            # r is affine in z, so the halved step's residual is the midpoint
            # of the two, and M is not read again
            for _ in range(40):
                up = np.flatnonzero(obj_new > obj * (1.0 + 1e-12) + 0.25 * slope)
                if up.size == 0:
                    break
                z_new[up] = 0.5 * (z_new[up] + za[up])
                r_new[up] = 0.5 * (r_new[up] + ra[up])
                t[up] = _smoothed(r_new[up], d2, p)
                obj_new[up] = t[up].sum(axis=1)
                slope[up] *= 0.5
            done = np.abs(obj - obj_new) <= rtol * (1.0 + np.abs(obj_new))
            za, ra, obj = z_new, r_new, obj_new
            if done.any():
                # retire the rows converged at this delta; copy the rest only now
                fin = act[done]
                z[fin], r[fin], converged[todo[fin]] = za[done], ra[done], True
                live = ~done
                act, Ma, ca = act[live], Ma[live], ca[live]
                za, ra, obj, t = za[live], ra[live], obj[live], t[live]
                if act.size == 0:
                    break
            grad, curv = _smoothed_derivatives(ra, d2, p, t)
        z[act], r[act] = za, ra
        last = delta == _DELTAS[-1]
        if p != 1 and delta == _DELTAS[0]:
            continue  # no bracket measured at 1e-2 closed: the check only costs there
        key = np.where(shut, np.inf, np.abs(r))
        S = np.argpartition(key, d - 2, axis=1)[:, : d - 1]  # both certificates' active set
        if p == 1:
            ok, x_ok, value_ok = _crossover(B, A[todo], S, key, cut, last)
        else:
            lo, hi = _bracket(B, A[todo], r, S, p)
            ok = np.abs(hi - lo) <= _BRACKET_RTOL * hi
            converged[todo[ok]] = True
            ok |= last  # after the last delta the open rows leave with their IRLS points
        if ok.any():
            # the row retires for good: certified, even from a stage that ran out
            # of Newton steps, or at p != 1 open after the last delta
            i = todo[ok]
            if p == 1:
                x[i], value[i], converged[i] = x_ok[ok], value_ok[ok], True
            else:
                x[i] = _assemble(z[ok], A[i], k[i], rest[i])
                value[i] = np.sum(np.abs(r[ok]) ** p, axis=1)
            keep = ~ok
            todo, M, c, z, r, shut = todo[keep], M[keep], c[keep], z[keep], r[keep], shut[keep]
            if todo.size == 0:
                break

    for i in todo:  # p = 1 only, no vertex certified: HiGHS
        lp = solve_lp(B, A[i])
        x[i], value[i], converged[i], iterations[i] = lp.x, lp.value, True, lp.pivots


def _check_columns_and_p(B, other, name, p):
    if B.shape[1] != other.shape[-1]:
        raise ValueError(
            f"shape mismatch: B has {B.shape[1]} columns, {name} has {other.shape[-1]}"
        )
    check_exponent(p)


def min_lp_on_hyperplane(B, a, p) -> RegressionSolution:
    """Minimize ||B x||_p^p subject to a @ x = 1, for a nonzero row a and real p >= 1.

    The one-row case of the dispatcher behind ``sensitivities_wrt``, whose
    value for a is ``1 / value`` bit for bit at every p.  A row outside the
    row space of B gets value 0.0 at a null vector of B without a solve; the
    others the closed form at p = 2 or d = 1, IRLS at any other p and, at
    p = 1, the LP's optimal vertex, certified by a dual point (or solved by
    HiGHS).  ``iterations`` counts Newton steps, HiGHS's iterations where
    HiGHS solved the LP, and 0 without a solve; at p = 1 ``status`` is
    always "optimal", and at any other p it is "optimal" too when the
    primal/dual bracket certified the value before the iterations ran out.
    At p not in {1, 2}, "optimal" without a closed bracket only means the
    last Newton step changed the objective by at most 1e-11 relative: that
    bounds the step, not the distance to the minimum (such values have
    measured up to 8.4e-12 relative apart at p = 1.01).  Only a
    bracket-certified value is within 1e-12 of the minimum.
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
    for a row outside the row space of B, at every p, as the rank gate's
    rule decides it; a B the Cholesky certificate refuses is solved in
    whitened coordinates at every rank.  B is a matrix or its
    ``FactoredMatrix``.  A row's value does not depend on which rows share
    its batch.  At p != 1 a row's IRLS solve ends as soon as a primal/dual
    bracket certifies its value to 1e-12 relative; raises
    NonConvergenceError when any row is neither certified nor converged
    within the iteration limit (at p = 1 every value is a certified or
    HiGHS-solved LP optimum).  A row that converges with its bracket still
    open returns its IRLS value, whose last Newton step changed the
    objective by at most 1e-11 relative; that is not a proven gap (such
    values have measured up to 8.4e-12 relative apart at p = 1.01), and
    only certified rows carry the 1e-12.
    """
    M = as_matrix(M)
    B = FactoredMatrix.of(B)
    _check_columns_and_p(B.s, M, "M", p)
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

    At p = 2 these are the leverage scores, read off the rank gate's q.  At
    any other p the oracle's ``FactoredMatrix`` of A is the rank gate, as
    the regression reduction's certificate is: a certified A is factored
    once, by its Cholesky certificate, and a refused one once, by the
    pivoted QR whose rule the gate applies, with no q formed either way.
    The oracle then solves a refused A in whitened coordinates, so its
    values are those of any matrix with A's column space.
    """
    if p == 2:
        vals = leverage_exact(require_tall_full_rank(A)).values
    else:
        a = as_matrix(A)
        B = FactoredMatrix.of(a)
        check_tall_full_rank(a.shape, B.w.shape[1])
        vals = sensitivities_wrt(a, B, p)
    return WeightVector(values=vals, kind="sensitivity", p=float(p))
