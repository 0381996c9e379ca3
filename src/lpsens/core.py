"""Dense-matrix primitives shared by every estimator.

All functions are pure: they never mutate their inputs, and identical
arguments (including random sources) give bit-identical results.
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


def matrix_rank(a) -> int:
    return pivoted_qr(a).rank


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

    Returns the validated matrix and the q factor of the pivoted QR that
    decided its rank, an orthonormal basis of its column space.  A value
    this function returned comes back unchanged, without a QR.
    """
    if isinstance(a, GatedMatrix):
        return a
    a = as_matrix(a)
    n, d = a.shape
    if n < d:
        raise RankDeficientError(f"matrix must be tall, got shape ({n}, {d})")
    qr = pivoted_qr(a)
    if qr.rank < d:
        raise RankDeficientError(
            f"matrix has column rank {qr.rank} < {d}; estimators need full column rank"
        )
    return GatedMatrix(a, qr.q)


def pseudoinverse_gram(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Gram matrix A^T A.

    Built from the SVD of A itself so the small singular values are cut at
    the same relative threshold the rank decision uses.
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
