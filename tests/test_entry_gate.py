"""Every public entry point factors its input at most once, and the gate holds everywhere.

An entry point that reads the gate's q factor makes the factorization that
decided the rank its only factorization of the input matrix: Lewis weights,
embeddings and exact leverage scores below it reuse the gate's q.  That
factorization is CholeskyQR2 from a certified Cholesky factor of the Gram
matrix (``core.certified_cholesky``), or the column-pivoted QR where the
certificate refuses the input.  The two calls that read no q,
``lp_embedding`` with given weights and ``leverage_approx``, prove full rank
on a row sample or a sketch instead and run the gate only when that proof
falls short; ``regression_via_sensitivity`` reads no q either, and its one
factorization is the certificate, or the gate's where the certificate refuses.

``factorization_shapes`` counts both kinds on the input's own n x d shape;
the matrices are tall enough that no sampled embedding keeps every row, so a
rank check of a sample never has that shape.  The oracle's factor of its own
B (``regress._minimize``) decides no rank for the entry point and is not
counted.
"""

import numpy as np
import pytest

import lpsens as L
from conftest import factorization_shapes, random_tall

N, D = 2000, 3


@pytest.fixture(scope="module")
def tall():
    return random_tall(np.random.default_rng(11), N, D, scale_rows=True)


_ENTRIES = {
    "exact p=1": lambda a, rs: L.sensitivities_exact(a, 1),
    "exact p=2": lambda a, rs: L.sensitivities_exact(a, 2),
    "exact p=3": lambda a, rs: L.sensitivities_exact(a, 3),
    "max p=1.5": lambda a, rs: L.max_sensitivity(a, 1.5, rs),
    "max p=2": lambda a, rs: L.max_sensitivity(a, 2, rs),
    "oneshot": lambda a, rs: L.total_lewis_oneshot(a, L.TotalConfig(p=1.5, gamma=0.5), rs),
    "rowwise": lambda a, rs: L.sensitivities_rowwise(
        a, L.RowwiseConfig(p=2, alpha=50, signs_per_block=2, repetitions=1), rs
    ),
    "recursive_l1": lambda a, rs: L.total_recursive_l1(
        a,
        L.TotalConfig(p=1, gamma=0.9, method="recursive_l1", base_size=40, r_override=10),
        rs,
    ),
    "lewis_weights": lambda a, rs: L.lewis_weights(a, L.LewisConfig(p=1.5)),
    "lp_embedding": lambda a, rs: L.lp_embedding(a, 1.5, 0.5, rs),
}

_SOLVES_EVERY_ROW = ("exact p=1", "exact p=3")  # kept small: one LP or IRLS solve per row


def _uniform_weights(a, total=None):
    """Weights that need no factorization of A: total / n on every row (total = d)."""
    n, d = a.shape
    return np.full(n, (d if total is None else total) / n)


# calls that read no q factor, so a rank proof on a sample or sketch replaces the gate
_UNGATED = {
    "lp_embedding weights": lambda a, rs: L.lp_embedding(
        a, 1.5, 0.5, rs, weights=_uniform_weights(a)
    ),
    "leverage_approx": lambda a, rs: L.leverage_approx(a, 0.5, rs),
}


# the test names predate the Cholesky certificate: each counts factorizations
# of the input, certified Cholesky and pivoted QR alike
@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_one_pivoted_qr_of_the_input_per_call(tall, monkeypatch, entry):
    a = tall[:200] if entry in _SOLVES_EVERY_ROW else tall
    seen = factorization_shapes(monkeypatch, lambda: _ENTRIES[entry](a, L.RandomSource(5)))
    assert [shape for _, shape in seen].count(a.shape) == 1, seen


@pytest.mark.parametrize("entry", list(_UNGATED))
def test_no_pivoted_qr_of_the_input_without_a_q_reader(tall, monkeypatch, entry):
    seen = factorization_shapes(monkeypatch, lambda: _UNGATED[entry](tall, L.RandomSource(5)))
    # the sample's or sketch's own rank check is the one factorization
    assert seen and [shape for _, shape in seen].count(tall.shape) == 0, seen


def _ill_conditioned(rng, n, d, cond):
    """Rows of U diag(s) V^T, s from 1 to 1 / cond, scaled by exp U(-2, 2)."""
    u = np.linalg.qr(rng.standard_normal((n, d)))[0]
    v = np.linalg.qr(rng.standard_normal((d, d)))[0]
    a = (u * np.logspace(0, -np.log10(cond), d)) @ v.T
    return a * np.exp(rng.uniform(-2.0, 2.0, n))[:, None]


@pytest.mark.parametrize("entry", ["exact p=2", "max p=1.5", "lewis_weights"])
def test_ill_conditioned_input_takes_one_pivoted_qr(monkeypatch, entry):
    # cond ~ 1e8 is past the Cholesky certificate and far inside RANK_TOL:
    # the pivoted QR decides rank d, and nothing else factors the input
    a = _ill_conditioned(np.random.default_rng(8), 2000, 3, 1e8)
    seen = factorization_shapes(monkeypatch, lambda: _ENTRIES[entry](a, L.RandomSource(5)))
    assert [x for x in seen if x[1] == a.shape] == [("pivoted", a.shape)], seen


@pytest.mark.parametrize("refused", [False, True], ids=["certified", "refused"])
def test_regression_reads_no_q_factor(tall, monkeypatch, refused):
    # the reduction needs full rank but no q: the certificate is its one
    # factorization of A, and only an input it refuses takes the gate's basis
    import lpsens.core as core

    a = _ill_conditioned(np.random.default_rng(8), N, D, 1e8) if refused else tall
    basis, bases = core.orthonormal_basis, []
    monkeypatch.setattr(core, "orthonormal_basis", lambda x: bases.append(x.shape) or basis(x))
    seen = factorization_shapes(
        monkeypatch, lambda: L.regression_via_sensitivity(a, np.ones(N), 1.5)
    )
    kind = "pivoted" if refused else "cholesky"
    assert [x for x in seen if x[1] == a.shape] == [(kind, a.shape)], seen
    assert bases == ([a.shape] if refused else [])


def _wide(rng):
    return rng.standard_normal((3, 5))


def _duplicated_column(rng):
    a = random_tall(rng, 40, 4)
    a[:, 3] = a[:, 1]
    return a


_GATED = dict(
    _ENTRIES,
    **_UNGATED,
    OneShotTotal=lambda a, rs: L.OneShotTotal(a, L.TotalConfig(p=1, gamma=0.5), rs),
    regression=lambda a, rs: L.regression_via_sensitivity(a, np.ones(a.shape[0]), 1.5),
    linf_embedding=lambda a, rs: L.linf_embedding(a),
)


@pytest.mark.parametrize("make", [_wide, _duplicated_column], ids=["wide", "duplicated_column"])
@pytest.mark.parametrize("entry", list(_GATED))
def test_every_gated_entry_rejects_rank_deficient_input(np_rng, make, entry):
    with pytest.raises(L.RankDeficientError):
        _GATED[entry](make(np_rng), L.RandomSource(0))


def test_lp_embedding_with_weights_gates_a_short_first_draw(np_rng):
    # weights this small keep no row, so no draw can prove rank d: the gate
    # decides, and a full-rank A redraws until the draws run out
    with pytest.raises(L.RankDeficientError):
        a = _duplicated_column(np_rng)
        L.lp_embedding(a, 1.5, 0.5, L.RandomSource(0), weights=_uniform_weights(a, 1e-9))
    with pytest.raises(L.NonConvergenceError):
        a = random_tall(np_rng, 40, 4)
        L.lp_embedding(a, 1.5, 0.5, L.RandomSource(0), weights=_uniform_weights(a, 1e-9))


_EXPONENT_CHECKS = {
    "LewisConfig": lambda a, p: L.LewisConfig(p=p),
    "RowwiseConfig": lambda a, p: L.RowwiseConfig(p=p, alpha=2),
    "TotalConfig": lambda a, p: L.TotalConfig(p=p, gamma=0.5),
    "max_sensitivity": lambda a, p: L.max_sensitivity(a, p, L.RandomSource(0)),
    "regression": lambda a, p: L.regression_via_sensitivity(a, np.ones(a.shape[0]), p),
    "leave_one_out": lambda a, p: L.leave_one_out_multiregression(a, p),
    "sensitivities_wrt": lambda a, p: L.sensitivities_wrt(a, a, p),
}


@pytest.mark.parametrize("p", [0.5, np.inf, np.nan])
@pytest.mark.parametrize("entry", list(_EXPONENT_CHECKS))
def test_every_exponent_check_rejects_p_outside_one_to_inf(np_rng, entry, p):
    # max_sensitivity checks p before its rank gate: the wide input is not reached
    a = _wide(np_rng) if entry == "max_sensitivity" else random_tall(np_rng, 20, 3)
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        _EXPONENT_CHECKS[entry](a, p)
