"""Output checks for the benchmark's timed calls.

Two kinds of check, kept apart because they fail for different reasons:

* ``invariant`` problems are outputs that are wrong for every seed: a
  sensitivity outside [0, 1], a total above d^max(1, p/2), an exact value
  that disagrees with an independent solver, a reduction that misses the
  directly solved regression.  Any of them makes the run incorrect.
* ``window`` problems are the paper's high-probability bounds on the
  randomized estimators (rowwise envelope, total and max windows, sketch
  accuracy).  A miss counts the call as failed without marking the run
  incorrect.

The independent references never call lpsens: scipy's HiGHS for p = 1,
Householder QR leverage for p = 2 and scipy.optimize for other p.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, minimize

ENVELOPE_C = 4.0  # acceptance-04 envelope constant
ENVELOPE_ROWS = 0.95  # share of rows that must sit inside the envelope
EXACT_RTOL = 1e-5  # exact sensitivities vs the independent reference
REDUCE_TOL = 1e-6  # reductions vs direct regression, relative to 1 + OPT
REFERENCE_ROWS = 6  # size of the fixed row subset checked against the reference


# ---------------------------------------------------------------- references
def qr_leverage(a: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(a)
    return np.einsum("ij,ij->i", q, q)


def _lp_objective(mat, off, p):
    """f(z) = sum |mat @ z + off|^p and its gradient, for p > 1."""

    def f(z):
        r = mat @ z + off
        ar = np.abs(r)
        val = float(np.sum(ar**p))
        grad = mat.T @ (p * ar ** (p - 1.0) * np.sign(r))
        return val, grad

    return f


def _smooth_min(mat, off, p):
    """min_z ||mat @ z + off||_p^p for p > 1, from the least-squares start."""
    z0 = np.linalg.lstsq(mat, -off, rcond=None)[0]
    f = _lp_objective(mat, off, p)
    res = minimize(f, z0, jac=True, method="BFGS", options={"gtol": 1e-12, "maxiter": 10_000})
    res = minimize(f, res.x, jac=True, method="BFGS", options={"gtol": 1e-13, "maxiter": 10_000})
    return float(f(res.x)[0]), res.x


def min_on_hyperplane(b: np.ndarray, a_row: np.ndarray, p: float) -> float:
    """min ||b x||_p^p subject to a_row @ x = 1, without lpsens."""
    d = b.shape[1]
    if p == 1:
        m = b.shape[0]
        res = linprog(
            np.concatenate([np.zeros(d), np.ones(m)]),
            A_ub=np.block([[b, -np.eye(m)], [-b, -np.eye(m)]]),
            b_ub=np.zeros(2 * m),
            A_eq=np.concatenate([a_row, np.zeros(m)])[None, :],
            b_eq=[1.0],
            bounds=[(None, None)] * d + [(0, None)] * m,
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        return float(res.fun)
    # x = a / |a|^2 + N z with N an orthonormal basis of a's null space
    x0 = a_row / float(a_row @ a_row)
    null = np.linalg.svd(a_row[None, :])[2][1:].T
    val, _ = _smooth_min(b @ null, b @ x0, p)
    return val


def direct_regression(a: np.ndarray, y: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """min_x ||a x - y||_p^p and its minimizer, without lpsens."""
    if p == 1:
        m, d = a.shape
        res = linprog(
            np.concatenate([np.zeros(d), np.ones(m)]),
            A_ub=np.block([[a, -np.eye(m)], [-a, -np.eye(m)]]),
            b_ub=np.concatenate([y, -y]),
            bounds=[(None, None)] * d + [(0, None)] * m,
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        return float(res.fun), res.x[:d]
    if p == 2:
        x = np.linalg.lstsq(a, y, rcond=None)[0]
        r = a @ x - y
        return float(r @ r), x
    return _smooth_min(a, -y, p)


def anchor_scale(a: np.ndarray) -> float:
    """The reductions' documented default lambda, 1e-2 * ||A||_F / sqrt(n d)."""
    n, d = a.shape
    return 1e-2 * float(np.linalg.norm(a)) / math.sqrt(n * d)


def reference_rows(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, REFERENCE_ROWS).astype(int))


# -------------------------------------------------------------------- checks
def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def check_exact(sig: np.ndarray, p: float, d: int) -> list[str]:
    bad = []
    if not np.all(np.isfinite(sig)):
        bad.append("non-finite sensitivity")
    if sig.min() < -1e-12 or sig.max() > 1.0 + 1e-9:
        bad.append(f"sensitivity outside [0, 1]: [{sig.min():.3g}, {sig.max():.3g}]")
    bound = d ** max(1.0, p / 2.0)
    if sig.sum() > bound * (1.0 + 1e-9):
        bad.append(f"total {sig.sum():.6g} > d^max(1,p/2) = {bound:.6g}")
    if p == 2 and abs(sig.sum() - d) > 1e-8 * d:
        bad.append(f"p = 2 total {sig.sum():.12g} != d = {d}")
    return bad


def check_exact_reference(a: np.ndarray, sig: np.ndarray, p: float) -> list[str]:
    """Exact sensitivities of a fixed row subset against an independent solver."""
    bad = []
    if p == 2:
        want = qr_leverage(a)[reference_rows(a.shape[0])]
    else:
        want = np.array([1.0 / min_on_hyperplane(a, a[i], p) for i in reference_rows(a.shape[0])])
    got = sig[reference_rows(a.shape[0])]
    rtol = 1e-8 if p == 2 else EXACT_RTOL
    for i, g, w in zip(reference_rows(a.shape[0]), got, want):
        if not _close(g, w, rtol):
            bad.append(f"row {i}: exact {g:.10g} vs reference {w:.10g}")
    return bad


def check_rowwise(est: np.ndarray, sig: np.ndarray, p: float, alpha: int) -> list[str]:
    n = sig.shape[0]
    ceiling = ENVELOPE_C * (alpha ** (p - 1.0) * sig + (alpha**p / n) * sig.sum())
    inside = float(np.mean((sig <= ENVELOPE_C * est) & (est <= ceiling)))
    if inside < ENVELOPE_ROWS:
        return [f"{inside:.3f} of rows inside the envelope < {ENVELOPE_ROWS}"]
    return []


def check_oneshot(value: float, total: float) -> list[str]:
    if not total / 1.5 <= value <= 3.0 * total:
        return [f"oneshot {value:.6g} outside [S/1.5, 3S], S = {total:.6g}"]
    return []


def check_recursive(value: float, total: float) -> list[str]:
    if not total * (1.0 - 1e-9) <= value <= 3.0 * total:
        return [f"recursive_l1 {value:.6g} outside [S, 3S], S = {total:.6g}"]
    return []


def check_max(estimate: float, top: float, p: float, d: int) -> list[str]:
    hi = 2.0 * (2.0 * d) ** (p / 2.0)
    if not 0.5 * top <= estimate <= hi * top:
        return [f"max {estimate:.6g} outside [0.5, {hi:.3g}] x max sigma {top:.6g}"]
    return []


def check_weights(w: np.ndarray, rows: np.ndarray, scales: np.ndarray, n: int, d: int) -> list[str]:
    bad = []
    if w.min() < 0.0 or w.max() > 1.0 + 1e-9:
        bad.append("Lewis weight outside [0, 1]")
    if abs(w.sum() - d) > 1e-3 * d:
        bad.append(f"Lewis weights sum to {w.sum():.6g}, not d = {d}")
    if rows.size < d or np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= n:
        bad.append("embedding rows are not distinct indices of A")
    if np.any(scales < 1.0 - 1e-12):
        bad.append("embedding scale below 1")
    return bad


def leverage_outside(est: np.ndarray, lev: np.ndarray, lo: float, hi: float) -> float:
    """Share of sketched leverage scores whose ratio to the exact one is outside [lo, hi]."""
    ratio = est / np.maximum(lev, 1e-300)
    return float(np.mean((ratio < lo * (1.0 - 1e-9)) | (ratio > hi * (1.0 + 1e-9))))


def check_leverage_approx(est: np.ndarray, lev: np.ndarray, eps: float) -> list[str]:
    """A (1 +- eps) subspace embedding keeps every ratio in [1/(1+eps)^2, 1/(1-eps)^2]."""
    lo, hi = 1.0 / (1.0 + eps) ** 2, 1.0 / (1.0 - eps) ** 2
    outside = leverage_outside(est, lev, lo, hi)
    if outside:
        return [f"{outside:.2e} of sketched leverage scores outside [{lo:.3g}, {hi:.3g}] x exact"]
    return []


def check_regression(value: float, a: np.ndarray, y: np.ndarray, p: float) -> list[str]:
    want, _ = direct_regression(a, y, p)
    if abs(value - want) > REDUCE_TOL * (1.0 + want):
        return [f"regression {value:.10g} vs direct {want:.10g}"]
    return []


def check_leave_one_out(vals: np.ndarray, a: np.ndarray, p: float) -> list[str]:
    lam = anchor_scale(a)
    bad = []
    for i in range(a.shape[1]):
        opt, y = direct_regression(np.delete(a, i, axis=1), a[:, i], p)
        upper = opt + lam**p * (1.0 + float(np.sum(np.abs(y) ** p)))
        tol = REDUCE_TOL * (1.0 + opt)
        if not opt - tol <= vals[i] <= upper + tol:
            bad.append(f"column {i}: {vals[i]:.10g} outside [{opt:.10g}, {upper:.10g}]")
    return bad
