"""Dense two-phase simplex for small equality-form LPs, solved as a stack.

Solves  min c @ x  subject to  A[k] @ x = b,  0 <= x <= upper  for every
matrix A[k] of a stack; the K problems share c, b, upper and their shape.
Variables may carry finite upper bounds, which keeps the l1 regression
encodings small: a box variable costs no extra row.

Every LP follows the rules a lone LP would: Dantzig pricing, Bland's rule
after 40 consecutive degenerate pivots, a bounded-variable ratio test whose
ties go to the smallest basic variable index.  The LPs advance in lockstep,
one pivot per iteration for every LP still active, and an LP that reaches
optimality leaves the active stack, which is compacted only then.  No LP's
arithmetic depends on another's, so each entry is bit-identical to solving
it alone; ``solve_lp`` is the one-entry case.

The tableaus are kept dense; every problem this package builds has at most a
few dozen constraint rows, so an iteration is a fixed number of array
operations on the whole stack, plus two per block of constraint rows in the
pivot update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NonConvergenceError

_BLAND_TRIGGER = 40  # consecutive degenerate pivots before Bland pricing kicks in


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    value: float
    duals: np.ndarray
    pivots: int


@dataclass(frozen=True)
class LPStack:
    """Per-LP results of ``solve_lp_stack``, stacked along the first axis."""

    x: np.ndarray  # (K, n)
    value: np.ndarray  # (K,)
    duals: np.ndarray  # (K, m)
    pivots: np.ndarray  # (K,)
    basis: np.ndarray  # (K, m) basic variable of each tableau row; >= n is an artificial


class InfeasibleError(ValueError):
    """Phase 1 ended with artificial variables still positive."""


class UnboundedError(ValueError):
    """A descent direction had no limiting bound."""


def _pivot(T, flat_r, col, on=None):
    """Pivot stack entry k on its row r[k], in place: every entry, or those
    where on[k].

    ``flat_r`` holds k * m + r[k], the pivot rows in ``T.reshape(-1, N)``;
    ``col`` is each entry's entering column, so the pivot elements are
    ``col.reshape(-1)[flat_r]``.  The update is the elementwise arithmetic
    of a full outer product, applied to blocks of constraint rows: a block's
    temporary holds at most one tableau or one row of the whole stack,
    whichever is larger.  The bits are those of a lone tableau, and the
    entering column comes out as exact zeros around an exact one.  Entries
    that do not pivot subtract exact zeros and keep theirs.
    """
    K, m, N = T.shape
    rows = T.reshape(K * m, N)
    prow = np.take(rows, flat_r, axis=0)
    if on is None:
        prow /= col.reshape(-1)[flat_r][:, None]
        rows[flat_r] = prow
        col = col.copy()
    else:
        np.divide(prow, col.reshape(-1)[flat_r][:, None], out=prow, where=on[:, None])
        rows[flat_r[on]] = prow[on]
        prow[~on] = 0.0
        col = np.where(on[:, None], col, 0.0)
    col.reshape(-1)[flat_r] = 0.0
    step = -(-m // K)
    for i in range(0, m, step):
        T[:, i : i + step] -= col[:, i : i + step, None] * prow[:, None, :]


def _run_phase(state, ub, cost, allowed, tol, max_pivots):
    """Pivot every LP of the stack to optimality for ``cost``, in lockstep.

    ``state`` is (T, xB, basis, sign, pivots, order), all indexed by stack
    position and updated in place.  ``sign`` is each variable's pricing
    sign: +1 at its lower bound, -1 at its upper bound, 0 when basic;
    ``allowed`` (1.0 or 0.0 per variable) bars variables from entering;
    ``pivots`` gains each LP's pivot count.  The LPs still pivoting are the
    first ones: when some finish they trade places with the last active
    ones, so compaction copies only the LPs that move, and ``order`` records
    which LP sits where.  Per-LP entries of the active arrays are read and
    written by flat index, the cheapest numpy gather for a short stack.
    """
    T, xB, basis, sign, pivots, order = state
    K, m, N = T.shape
    na = K  # LPs still pivoting: positions [0, na)
    Ta, xa, ba, sa = T, xB, basis, sign
    at_m, at_N = np.arange(0, K * m, m), np.arange(0, K * N, N)  # flat row offsets
    degenerate = np.zeros(K, dtype=np.intp)
    it = 0
    while na:
        if it > max_pivots:
            raise NonConvergenceError(f"simplex exceeded {max_pivots} pivots")
        # improving variables score below -tol; Dantzig takes the steepest,
        # argmin the smallest index among equals
        score = np.matmul(cost[ba][:, None, :], Ta)[:, 0]
        np.subtract(cost, score, out=score)  # the reduced costs
        score *= sa
        score *= allowed
        j = score.argmin(axis=1)
        done = score.reshape(-1)[at_N + j] >= -tol
        if done.any():
            pivots[:na][done] += it
            na -= int(np.count_nonzero(done))
            if na == 0:
                return
            to = np.flatnonzero(done[:na])  # finished, inside the new active prefix
            fro = na + np.flatnonzero(~done[na:])  # active, beyond it
            for arr in state + (score, j, degenerate):
                arr[to], arr[fro] = arr[fro], arr[to]
            Ta, xa, ba, sa = T[:na], xB[:na], basis[:na], sign[:na]
            score, j, degenerate = score[:na], j[:na], degenerate[:na]
            at_m, at_N = at_m[:na], at_N[:na]
        bland = degenerate >= _BLAND_TRIGGER
        if bland.any():  # Bland: smallest improving index enters
            j[bland] = (score[bland] < -tol).argmax(axis=1)
        flat_j = at_N + j
        del score  # free before the pivot's temporaries
        s = sa.reshape(-1)[flat_j]
        col = Ta[np.arange(na), :, j]
        w = s[:, None] * col

        # ratio test: entering moves by t >= 0, basic values move by -t * w;
        # w > tol drives a basic variable to its lower bound, w < -tol to its
        # upper bound (an infinite cap gives t = inf)
        t = np.full(w.shape, np.inf)
        np.divide(xa, w, out=t, where=w > tol)
        np.divide(ub[ba] - xa, -w, out=t, where=w < -tol)
        np.maximum(t, 0.0, out=t)
        t_cand = t.min(axis=1)
        ub_j = ub[j]
        t_all = np.minimum(ub_j, t_cand)
        if t_all.max() == np.inf:
            raise UnboundedError("descent direction with no limiting bound")

        # a basic variable leaves where it limits the step (Bland: smallest
        # variable index among ties) for the bound it hits, +1 lower and -1
        # upper, the sign of w.  Elsewhere the entering variable runs to its
        # other bound and the basis is unchanged.
        reach = t_all + tol
        leave = t_cand <= reach
        flat_r = at_m + np.where(t <= reach[:, None], ba, N).argmin(axis=1)
        xa -= t_all[:, None] * w
        xf, bf, sf = xa.reshape(-1), ba.reshape(-1), sa.reshape(-1)
        leaving = bf[flat_r]
        entering = np.where(s > 0.0, t_all, ub_j - t_all)
        if leave.all():  # every pivot of a lone LP takes this branch
            sf[at_N + leaving] = np.sign(w.reshape(-1)[flat_r])
            sf[flat_j] = 0
            _pivot(Ta, flat_r, col)
            bf[flat_r] = j
            xf[flat_r] = entering
        else:
            sf[at_N + leaving] = np.sign(w.reshape(-1)[flat_r]) * leave
            sf[flat_j] = np.where(leave, 0, -s)
            if leave.any():
                _pivot(Ta, flat_r, col, leave)
            bf[flat_r] = np.where(leave, j, leaving)
            xf[flat_r] = np.where(leave, entering, xf[flat_r])
        degenerate = np.where(t_all <= tol, degenerate + 1, 0)
        it += 1


def solve_lp_stack(c, A, b, upper=None, *, tol=1e-9, max_pivots=500_000) -> LPStack:
    """Two-phase bounded-variable simplex on every LP of the (K, m, n) stack A.

    A constraint that phase 1 finds redundant keeps its artificial variable
    basic, pinned at zero, so its dual is 0.  Raises ``InfeasibleError`` or
    ``UnboundedError`` if any LP of the stack is infeasible or unbounded.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    K, m, n = A.shape
    N = n + m
    if upper is None:
        upper = np.full(n, np.inf)
    else:
        upper = np.asarray(upper, dtype=np.float64)

    row_sign = np.where(b < 0, -1.0, 1.0)
    b = b * row_sign
    T = np.zeros((K, m, N))
    np.multiply(A, row_sign[:, None], out=T[:, :, :n])
    T[:, np.arange(m), n + np.arange(m)] = 1.0
    xB = np.tile(b, (K, 1))
    basis = np.tile(np.arange(n, N), (K, 1))
    sign = np.ones((K, N), dtype=np.int8)
    sign[:, n:] = 0
    ub = np.concatenate([upper, np.full(m, np.inf)])
    allowed = np.ones(N)
    allowed[:n] = upper > tol  # variables fixed at zero never enter
    pivots = np.zeros(K, dtype=np.intp)
    order = np.arange(K)  # the LP at each stack position; phases permute positions
    state = (T, xB, basis, sign, pivots, order)

    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    _run_phase(state, ub, cost1, allowed, tol, max_pivots)

    art_total = np.where(basis >= n, xB, 0.0).sum(axis=1)
    if np.any(art_total > 1e-7 * scale):
        k = int(np.argmax(art_total > 1e-7 * scale))
        raise InfeasibleError(f"LP {order[k]}: phase 1 residual {art_total[k]:.3e}")

    # drive the artificials still basic (at zero) out of the basis, row by row
    for r in range(m):
        art = basis[:, r] >= n
        if not art.any():
            continue
        structural = (np.abs(T[:, r, :n]) > 1e-9) & (sign[:, :n] != 0)
        on = art & structural.any(axis=1)
        j = np.argmax(structural, axis=1)
        kp = np.flatnonzero(on)
        sign[kp, basis[kp, r]] = 1
        _pivot(T, np.arange(r, K * m, m), T[np.arange(K), :, j], on)
        sign[kp, j[kp]] = 0
        basis[kp, r] = j[kp]
        xB[kp, r] = 0.0
        # a redundant constraint: its row is zero on the structurals, so the
        # artificial stays basic at zero and the row never limits a step
        pinned = np.flatnonzero(art & ~on)
        T[pinned, r] = 0.0
        T[pinned, r, basis[pinned, r]] = 1.0
        xB[pinned, r] = 0.0

    allowed[n:] = 0.0
    cost2 = np.concatenate([c, np.zeros(m)])
    _run_phase(state, ub, cost2, allowed, tol, max_pivots)

    x_full = np.where(sign < 0, ub, 0.0)
    np.put_along_axis(x_full, basis, xB, axis=1)
    x = x_full[:, :n]
    value = np.matmul(x[:, None, :], c[:, None])[:, 0, 0]  # one dot per LP, as c @ x

    # the artificial block of the tableau is the inverse of the final basis,
    # so the row multipliers come straight out of it; copied column-major,
    # each multiplier is one BLAS dot product over the basis rows
    inverse = np.ascontiguousarray(T[:, :, n:].transpose(0, 2, 1)).transpose(0, 2, 1)
    duals = np.matmul(cost2[basis][:, None, :], inverse)[:, 0] * row_sign
    lp = np.argsort(order)  # back from stack positions to LP order
    return LPStack(x=x[lp], value=value[lp], duals=duals[lp], pivots=pivots[lp], basis=basis[lp])


def solve_lp(c, A, b, upper=None, *, tol=1e-9, max_pivots=500_000) -> LPResult:
    """Two-phase bounded-variable simplex; returns primal x and row duals."""
    A = np.asarray(A, dtype=np.float64)
    res = solve_lp_stack(c, A[None], b, upper, tol=tol, max_pivots=max_pivots)
    return LPResult(
        x=res.x[0],
        value=float(res.value[0]),
        duals=res.duals[0],
        pivots=int(res.pivots[0]),
    )
