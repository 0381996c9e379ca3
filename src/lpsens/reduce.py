"""Reductions from lp regression problems to sensitivity computations.

Appending the target as an extra column (with a small anchor row) turns the
optimal regression cost into an exact function of one row's sensitivity;
appending a scaled identity block turns all d leave-one-out column
regressions into d sensitivities of a single augmented matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .core import as_matrix, as_vector, check_exponent, require_tall_full_rank
from .regress import sensitivities_wrt


def default_anchor_scale(a) -> float:
    """Default lambda: small relative to the typical entry magnitude of A."""
    a = as_matrix(a)
    n, d = a.shape
    return 1e-2 * float(np.linalg.norm(a)) / math.sqrt(n * d)


def regression_via_sensitivity(a, b, p, lam=None) -> float:
    """min_y ||A y - b||_p^p recovered from one sensitivity of [A -b; 0 -lam].

    The value is exact (up to the sensitivity solver's tolerance) for every
    lam > 0; lam only affects conditioning.
    """
    a = require_tall_full_rank(a).a
    b = as_vector(b)
    n, d = a.shape
    if b.size != n:
        raise ValueError(f"b has {b.size} entries, expected {n}")
    check_exponent(p)
    if lam is None:
        lam = default_anchor_scale(a)
    lam = float(lam)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")

    augmented = np.zeros((n + 1, d + 1))
    augmented[:n, :d] = a
    augmented[:n, d] = -b
    augmented[n, d] = -lam
    sigma = float(sensitivities_wrt(augmented[n : n + 1], augmented, p)[0])
    if not sigma > 0:
        raise ValueError("anchor-row sensitivity vanished; reduction undefined")
    return lam**p / sigma - lam**p


def leave_one_out_multiregression(a, p, lam=None) -> np.ndarray:
    """Upper estimates of all d leave-one-out column regressions at once.

    Entry i is lam^p / sigma(row n+i of [A; lam I]) and satisfies
    OPT_i <= entry_i <= OPT_i + lam^p (1 + ||y*_i||_p^p), where OPT_i is the
    cost of predicting column i from the others.  Entries decrease toward
    OPT_i as lam shrinks.

    A may be rank deficient (duplicate columns are the interesting case);
    the identity block keeps the augmented matrix full rank.
    """
    a = as_matrix(a)
    n, d = a.shape
    check_exponent(p)
    if lam is None:
        lam = default_anchor_scale(a)
    lam = float(lam)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")

    augmented = np.vstack([a, lam * np.eye(d)])
    sigmas = sensitivities_wrt(augmented[n:], augmented, p)
    if not np.all(sigmas > 0):
        raise ValueError("an anchor-row sensitivity vanished; reduction undefined")
    return lam**p / sigmas
