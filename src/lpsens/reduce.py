"""Reductions from lp regression problems to sensitivity computations.

Appending the target as an extra column (with a small anchor row) turns the
optimal regression cost into an exact function of one row's sensitivity;
appending a scaled identity block turns all d leave-one-out column
regressions into d sensitivities of a single augmented matrix.

Each augmented matrix is built already scaled to the power of two the oracle
solves at and factored once; the regression's certificate serves both the
oracle and A's rank check.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    FactoredMatrix,
    as_matrix,
    as_vector,
    check_exponent,
    require_tall_full_rank,
    top_exponent,
)
from .regress import sensitivities_wrt


def default_anchor_scale(a) -> float:
    """Default lambda: small relative to the typical entry magnitude of A."""
    a = as_matrix(a)
    n, d = a.shape
    return 1e-2 * float(np.linalg.norm(a)) / math.sqrt(n * d)


def _anchor_scale(a, lam) -> float:
    """lam as a float, ``default_anchor_scale(a)`` when None; raises unless positive."""
    lam = default_anchor_scale(a) if lam is None else float(lam)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam


def regression_via_sensitivity(a, b, p, lam=None) -> float:
    """min_y ||A y - b||_p^p recovered from one sensitivity of [A -b; 0 -lam].

    The value is exact (up to the sensitivity solver's tolerance) for every
    lam > 0; lam only affects conditioning.  [A -b; 0 -lam] is built at the
    power of two the oracle solves at and factored once.  A certified
    augmented matrix has full column rank, so A does too; A needs no q
    factor, so only an augmented matrix the certificate refuses sends A to
    the rank gate.  A b in the range of A, at a lam the rank cut cannot tell
    from 0, puts the anchor row outside the row space (sensitivity inf): the
    cost is then 0.0, and it is never negative.
    """
    a = as_matrix(a)
    b = as_vector(b)
    n, d = a.shape
    if b.size != n:
        raise ValueError(f"b has {b.size} entries, expected {n}")
    check_exponent(p)
    try:
        lam = _anchor_scale(a, lam)
    except ValueError:
        require_tall_full_rank(a)  # A's rank is the first error, as for a zero A
        raise

    e = top_exponent(a, b, lam)
    scaled = np.zeros((n + 1, d + 1))
    np.ldexp(a, -e, out=scaled[:n, :d])
    np.ldexp(-b, -e, out=scaled[:n, d])
    scaled[n, d] = np.ldexp(-lam, -e)
    augmented = FactoredMatrix.of(scaled, e)
    if augmented.basis is not None:  # refused by the certificate
        require_tall_full_rank(a)
    anchor = np.zeros((1, d + 1))
    anchor[0, d] = -lam
    sigma = float(sensitivities_wrt(anchor, augmented, p)[0])
    if not sigma > 0:
        raise ValueError("anchor-row sensitivity vanished; reduction undefined")
    return max(lam**p / sigma - lam**p, 0.0)


def leave_one_out_multiregression(a, p, lam=None) -> np.ndarray:
    """Upper estimates of all d leave-one-out column regressions at once.

    Entry i is lam^p / sigma(row n+i of [A; lam I]) and satisfies
    OPT_i <= entry_i <= OPT_i + lam^p (1 + ||y*_i||_p^p), where OPT_i is the
    cost of predicting column i from the others.  Entries decrease toward
    OPT_i as lam shrinks.

    A may be rank deficient (duplicate columns are the interesting case);
    the identity block keeps the augmented matrix full rank.  [A; lam I] is
    built at the power of two the oracle solves at and factored once.
    """
    a = as_matrix(a)
    n, d = a.shape
    check_exponent(p)
    lam = _anchor_scale(a, lam)

    e = top_exponent(a, lam)
    scaled = np.zeros((n + d, d))
    np.ldexp(a, -e, out=scaled[:n])
    np.fill_diagonal(scaled[n:], np.ldexp(lam, -e))
    augmented = FactoredMatrix.of(scaled, e)
    sigmas = sensitivities_wrt(lam * np.eye(d), augmented, p)
    if not np.all(sigmas > 0):
        raise ValueError("an anchor-row sensitivity vanished; reduction undefined")
    return lam**p / sigmas
