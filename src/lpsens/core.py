"""Dense-matrix primitives shared by every estimator.

All functions are pure: they never mutate their inputs, and identical
arguments (including random sources) give bit-identical results.

One rank rule decides the rank everywhere: a column-pivoted QR keeps the
diagonal entries of R above RANK_TOL times the largest (``_r_rank``).  A tall
matrix whose Gram matrix has a well-conditioned Cholesky factor provably
passes that rule, so ``certified_cholesky`` proves full rank from two d x d
factorizations.  Two functions decide rank by it, each with the pivoted
QR for a matrix the certificate refuses (wide, rank deficient, ill
conditioned), so the decision is the same either way.  ``orthonormal_basis``
serves the readers of q, the rank gate and the exact leverage scores (by
CholeskyQR2 where it certifies: Yamamoto, Nakatsukasa, Yanagisawa and
Fukaya, 2015); ``FactoredMatrix.of`` serves the rest: the oracle,
``matrix_rank`` (the embeddings' draws, the leverage sketch) and
``pseudoinverse_gram``.
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
    return QRResult(q=q, rank=_r_rank(r))


def _r_rank(r) -> int:
    """The rank rule: the pivoted QR's diagonal entries above RANK_TOL times the largest."""
    diag = np.abs(np.diag(r))
    return 0 if diag.size == 0 or diag[0] == 0.0 else int(np.sum(diag > RANK_TOL * diag[0]))


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
        s = np.ldexp(a, -top_exponent(a))  # a zero A stays zero, and dpotrf refuses it
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
    # q = (S R^-1) R2^-1, R2 the Cholesky factor of the first pass's Gram, in
    # one n x d array: formed as (R^-T S^T)^T, q is Fortran-ordered like the
    # pivoted QR's, and BLAS applies R2^-1 to it in place
    q = (factor.r_inv.T @ factor.s.T).T
    r2, info = scipy.linalg.lapack.dpotrf(q.T @ q, lower=0, clean=1, overwrite_a=1)
    if info != 0:  # a certified R leaves cond(S R^-1) near 1: never seen
        return pivoted_qr(a)
    r2_inv, _ = scipy.linalg.lapack.dtrtri(r2, lower=0)
    q = scipy.linalg.blas.dtrmm(1.0, r2_inv, q, side=1, lower=0, overwrite_b=1)
    return QRResult(q=q, rank=a.shape[1])


def matrix_rank(a) -> int:
    """The rank ``pivoted_qr`` decides: the width of A's unscaled ``FactoredMatrix``,
    with no QR where the Gram's Cholesky factor certifies, and no q where it refuses."""
    return FactoredMatrix.of(as_matrix(a), 0).w.shape[1]


class GatedMatrix(NamedTuple):
    """A matrix that passed the rank gate, with the q factor that decided it.

    Internal (not exported from the package): a public entry point gates its
    input once and hands this value to the layers below it, so that each call
    factors the matrix once.  It unpacks as ``a, q = gated``.
    """

    a: np.ndarray
    q: np.ndarray


class FactoredMatrix(NamedTuple):
    """A matrix B as the oracle solves against it, factored once.

    Internal (not exported from the package).  ``s`` is 2^-e B, e the binary
    exponent of B's largest entry, so its entries are of order one; the
    rescale is exact, and with e = 0 ``s`` is B itself, not a copy.  ``w``
    is d x rank with W W^T the pseudoinverse of S^T S: R^-1 where
    ``certified_cholesky(s)`` proves rank d (``basis`` None), else V^T /
    sigma, from the SVD of the first rank rows of the R of the pivoted QR
    whose rule (``_r_rank``) decides the rank; V is the orthonormal
    ``basis`` of the row space, and S W has orthonormal columns.
    ``sensitivities_wrt`` takes this value in place of B, so a caller that
    builds it makes the oracle's only pass of scaling and factoring B.
    """

    e: int
    s: np.ndarray
    w: np.ndarray
    basis: np.ndarray | None

    @classmethod
    def of(cls, b, e=None) -> "FactoredMatrix":
        """B's ``FactoredMatrix``, B itself when it is one; given ``e``, ``b``
        is already 2^-e B, as the regression reduction builds it."""
        if isinstance(b, FactoredMatrix):
            return b
        if e is None:
            b = as_matrix(b)
            e = top_exponent(b)
            b = b if e == 0 else np.ldexp(b, -e)
        factor = certified_cholesky(b)
        if factor is not None:
            return cls(e, b, factor.r_inv, None)
        _, r, pivots = scipy.linalg.qr(b, mode="raw", pivoting=True, check_finite=False)
        rank = _r_rank(r)
        top = np.empty((rank, b.shape[1]))
        top[:, pivots] = r[:rank]
        _, sigma, v = np.linalg.svd(top, full_matrices=False)
        return cls(e, b, v.T / sigma, v)


def top_exponent(*arrays) -> int:
    """The binary exponent of the largest |entry| of the arrays (or numbers),
    without forming |x|."""
    return int(np.frexp(max(max(np.max(x), -np.min(x)) for x in arrays))[1])


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
    basis = orthonormal_basis(a)
    check_tall_full_rank(a.shape, basis.rank)
    return GatedMatrix(a, basis.q)


def check_tall_full_rank(shape, rank) -> None:
    """The gate's verdict on a matrix of this shape whose rank the rule decided."""
    n, d = shape
    if n < d:
        raise RankDeficientError(f"matrix must be tall, got shape ({n}, {d})")
    if rank < d:
        raise RankDeficientError(
            f"matrix has column rank {rank} < {d}; estimators need full column rank"
        )


def pseudoinverse_gram(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Gram matrix A^T A.

    2^-2e W W^T from A's ``FactoredMatrix``, whose W W^T is the
    pseudoinverse of S^T S for S = 2^-e A, so the rank it keeps is the
    rank rule's.  No library code calls it; perfbench/tracer.py wraps it by
    name in ``regress`` and ``total``.
    """
    f = FactoredMatrix.of(a)
    return np.ldexp(f.w @ f.w.T, -2 * f.e)


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
