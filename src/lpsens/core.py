"""Dense-matrix primitives shared by every estimator.

All functions are pure: they never mutate their inputs, and identical
arguments (including random sources) give bit-identical results.

One rank rule decides full column rank everywhere: a column-pivoted QR keeps
the diagonal entries of R above RANK_TOL times the largest.  A tall matrix
whose Gram matrix has a well-conditioned Cholesky factor provably passes that
rule, so ``certified_cholesky`` proves full rank from two d x d
factorizations, and the gate, ``matrix_rank`` and the exact leverage scores
then take their orthonormal basis from CholeskyQR2 (Yamamoto, Nakatsukasa,
Yanagisawa and Fukaya, 2015) instead of the pivoted QR.  Every matrix the
certificate refuses (wide, rank deficient, ill conditioned) gets the pivoted
QR, so the decision is the same either way.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

RANK_TOL = 1e-10


class RankDeficientError(ValueError):
    """Raised when an estimator needs full column rank and does not get it."""


class NonConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its budget.

    Carries the final residual so callers can report how close the run got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    if isinstance(key, str):
        # crc32 is stable across processes, unlike hash()
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"stream key must be int or str, got {type(key).__name__}")


@dataclass(frozen=True)
class RandomSource:
    """Splittable deterministic randomness.

    A (seed, stream) pair names one random stream; ``child`` derives
    independent substreams without consuming state, so estimators can hand
    out streams to subroutines in any order and still reproduce bit-exactly.
    """

    seed: int
    stream: tuple = ()

    def child(self, *keys) -> "RandomSource":
        extra = tuple(_key_to_int(k) for k in keys)
        return RandomSource(self.seed, self.stream + extra)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.PCG64(ss))


def store_integral_fields(cfg, *names) -> None:
    """Store each named field of a frozen config as an int, or raise naming it.

    Integral floats such as 30.0 are accepted; None (an unset override) is
    left alone.
    """
    for name in names:
        value = getattr(cfg, name)
        if value is None:
            continue
        try:
            integral = float(value).is_integer()
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(cfg, name, int(value))


def as_matrix(data) -> np.ndarray:
    """Validate and return a 2-D float64 C-ordered matrix.

    Rejects empty inputs and non-finite entries.
    """
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"matrix must be nonempty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(data) -> np.ndarray:
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return a


def check_exponent(p) -> None:
    """Raise ValueError unless p is finite and >= 1, as every estimator needs."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")


def lp_norm(v, p) -> float:
    """Entrywise l_p norm of a vector; p may be any real >= 1 or inf."""
    x = np.abs(as_vector(v))
    if not p >= 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    if x.size == 0:
        return 0.0
    m = float(x.max())
    if np.isinf(p) or m == 0.0:
        return m
    # scale by the max entry so x**p cannot overflow
    return m * float(np.sum((x / m) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class QRResult:
    q: np.ndarray
    rank: int


def pivoted_qr(a) -> QRResult:
    """Column-pivoted thin QR with a relative-tolerance rank decision.

    q has orthonormal columns, the first rank of which span the column space
    of A; rank counts diagonal entries of r above RANK_TOL times the largest.
    """
    a = as_matrix(a)
    q, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > RANK_TOL * diag[0]))
    return QRResult(q=q, rank=rank)


class CholeskyFactor(NamedTuple):
    """R with R^T R = S^T S up to rounding, for S = 2^-e A (e often 0)."""

    s: np.ndarray  # the matrix factored: A, or A rescaled by an exact power of two
    r: np.ndarray  # upper triangular, positive diagonal
    r_inv: np.ndarray


# a Gram matrix whose largest diagonal entry leaves this range is formed again
# from A rescaled, so that it neither overflows nor underflows
_GRAM_RANGE = (2.0**-600, 2.0**600)
# the certificate kappa^2 (n d + d^2) u <= _CERTIFICATE_BUDGET (certified_cholesky)
_CERTIFICATE_BUDGET = 0.25


def certified_cholesky(a) -> CholeskyFactor | None:
    """Cholesky factor of the Gram matrix of a tall A, where it proves rank d.

    Internal (not exported from the package).  Factors S^T S = R^T R
    (LAPACK dpotrf) and inverts R (dtrtri), where S is A itself, or
    2^-e A, e the binary exponent of A's largest entry, when the Gram of A
    would leave ``_GRAM_RANGE``; the rescale is exact.  Returns the factor
    only when kappa = |R|_F |R^-1|_F satisfies

        kappa^2 (n d + d^2) u <= 1/4,   u = machine epsilon,

    and None for a wide A, a failed factorization or a larger kappa.

    Why that proves full column rank.  The rounded Gram is S^T S + E1 with
    |E1|_2 <= n u |S|_F^2, and Cholesky's backward error gives R^T R =
    fl(S^T S) + E2 with |E2|_2 <= (d + 1) u |R|_F^2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.5 and Thm 10.3; to first order in
    u).  |S|_F^2 = tr(S^T S) equals |R|_F^2 up to the same terms, so E = E1 +
    E2 has |E|_2 <= (n + d + 1) u |R|_F^2 <= |R|_F^2 / (2 kappa^2) under the
    certificate.  Hence lambda_min(S^T S) >= 1 / |R^-1|_2^2 - |E|_2 >=
    1 / (2 |R^-1|_F^2) and lambda_max(S^T S) <= 3/2 |R|_F^2, which give

        cond_2(A) <= sqrt(3) kappa < 2 kappa.

    In a column-pivoted QR of A every |r_kk| is at least |r_dd| >=
    sigma_min(A), and |r_11| <= |A|_2, so its diagonal ratio is at least
    1 / cond_2(A) > 1 / (2 kappa).  The certificate caps kappa at
    (8 u)^-1/2 ~ 2.4e7 (n = d = 1), and near 5e4 at 25000 x 16, so that ratio
    stays above 2e-8, far above RANK_TOL: no matrix certified here is one
    the pivoted QR would call rank deficient.  The cap also keeps cond(A)
    below u^-1/2, where CholeskyQR2 returns an orthonormal q (Yamamoto,
    Nakatsukasa, Yanagisawa and Fukaya, ETNA 2015).
    """
    n, d = a.shape
    if n < d:
        return None
    s = a
    with np.errstate(over="ignore"):  # an infinite Gram is formed again, rescaled
        g = s.T @ s
    if not _GRAM_RANGE[0] <= g.diagonal().max() <= _GRAM_RANGE[1]:
        top = max(a.max(), -a.min())
        if top == 0.0:
            return None
        s = np.ldexp(a, -np.frexp(top)[1])
        g = s.T @ s
    r, info = scipy.linalg.lapack.dpotrf(g, lower=0, clean=1, overwrite_a=1)
    if info != 0:
        return None
    r_inv, info = scipy.linalg.lapack.dtrtri(r, lower=0)
    if info != 0:
        return None
    # Python floats: an overflowing kappa is inf, with no warning
    kappa = float(np.linalg.norm(r)) * float(np.linalg.norm(r_inv))
    if not kappa * kappa * ((n * d + d * d) * np.finfo(np.float64).eps) <= _CERTIFICATE_BUDGET:
        return None
    return CholeskyFactor(s, r, r_inv)


def orthonormal_basis(a) -> QRResult:
    """An orthonormal basis q of the column space of A and its rank.

    CholeskyQR2 from a ``certified_cholesky`` factor (rank d), else
    ``pivoted_qr``: its first rank columns of q span the column space.
    ``a`` must already be validated by ``as_matrix``.
    """
    factor = certified_cholesky(a)
    if factor is None:
        return pivoted_qr(a)
    # q = (S R^-1) R2^-1, R2 the Cholesky factor of the first pass's Gram;
    # the one n x d array allocated here takes both products
    q = factor.s @ factor.r_inv
    r2, info = scipy.linalg.lapack.dpotrf(q.T @ q, lower=0, clean=1, overwrite_a=1)
    if info != 0:  # a certified R leaves cond(S R^-1) near 1: never seen
        return pivoted_qr(a)
    r2_inv, _ = scipy.linalg.lapack.dtrtri(r2, lower=0)
    # q^T is Fortran-ordered, so BLAS forms R2^-T q^T = (q R2^-1)^T in place
    q = scipy.linalg.blas.dtrmm(1.0, r2_inv, q.T, side=0, lower=0, trans_a=1, overwrite_b=1).T
    return QRResult(q=q, rank=a.shape[1])


def matrix_rank(a) -> int:
    """The rank ``pivoted_qr`` decides, with no QR where the Gram's Cholesky
    factor certifies full column rank."""
    a = as_matrix(a)
    return a.shape[1] if certified_cholesky(a) is not None else pivoted_qr(a).rank


class GatedMatrix(NamedTuple):
    """A matrix that passed the rank gate, with the q factor that decided it.

    Internal (not exported from the package): a public entry point gates its
    input once and hands this value to the layers below it, so that each call
    factors the matrix once.  It unpacks as ``a, q = gated``.
    """

    a: np.ndarray
    q: np.ndarray


def require_tall_full_rank(a) -> GatedMatrix:
    """Entry gate for the estimators: n >= d and full column rank.

    Returns the validated matrix and the q factor of ``orthonormal_basis``,
    whose factorization decided the rank: CholeskyQR2 where the Gram's
    Cholesky factor certifies rank d, else the pivoted QR.  A value this
    function returned comes back unchanged, without a factorization.
    """
    if isinstance(a, GatedMatrix):
        return a
    a = as_matrix(a)
    n, d = a.shape
    if n < d:
        raise RankDeficientError(f"matrix must be tall, got shape ({n}, {d})")
    basis = orthonormal_basis(a)
    if basis.rank < d:
        raise RankDeficientError(
            f"matrix has column rank {basis.rank} < {d}; estimators need full column rank"
        )
    return GatedMatrix(a, basis.q)


def pseudoinverse_gram(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Gram matrix A^T A.

    Built from the SVD of A itself so the small singular values are cut at
    the same relative threshold the rank decision uses.  No library code
    calls it; perfbench/tracer.py wraps it by name in ``regress`` and ``total``.
    """
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[1]))
    keep = s > RANK_TOL * s[0]
    inv_sq = np.zeros_like(s)
    inv_sq[keep] = 1.0 / s[keep] ** 2
    return (vt.T * inv_sq) @ vt


_WEIGHT_KINDS = ("leverage", "lewis", "sensitivity")


@dataclass(frozen=True)
class WeightVector:
    """One nonnegative weight per matrix row, tagged with what it measures."""

    values: np.ndarray
    kind: str
    p: float | None = None

    def __post_init__(self):
        v = as_vector(self.values)
        object.__setattr__(self, "values", v)
        if self.kind not in _WEIGHT_KINDS:
            raise ValueError(f"kind must be one of {_WEIGHT_KINDS}, got {self.kind!r}")
        if self.kind != "leverage" and self.p is None:
            raise ValueError(f"kind {self.kind!r} requires p")
        if np.any(v < -1e-12):
            raise ValueError("weights must be nonnegative")

    def __len__(self):
        return self.values.shape[0]

    @property
    def total(self) -> float:
        return float(self.values.sum())
