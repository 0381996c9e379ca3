"""Every public entry point gates its input once, and the gate holds everywhere.

The rank gate's column-pivoted QR is the only factorization of the input
matrix an entry point needs: Lewis weights, embeddings and exact leverage
scores below it reuse the gate's q.  ``scipy.linalg.qr`` is counted on the
input's own n x d shape; the matrices are tall enough that no sampled
embedding keeps every row, so a rank check of a sample never has that shape.
"""

import numpy as np
import pytest
import scipy.linalg

import lpsens as L
from conftest import random_tall

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


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_one_pivoted_qr_of_the_input_per_call(tall, monkeypatch, entry):
    a = tall[:200] if entry in _SOLVES_EVERY_ROW else tall
    qr = scipy.linalg.qr
    shapes = []

    def counting_qr(x, *args, **kwargs):
        if kwargs.get("pivoting"):
            shapes.append(np.shape(x))
        return qr(x, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
    _ENTRIES[entry](a, L.RandomSource(5))
    assert shapes.count(a.shape) == 1, shapes


def _wide(rng):
    return rng.standard_normal((3, 5))


def _duplicated_column(rng):
    a = random_tall(rng, 40, 4)
    a[:, 3] = a[:, 1]
    return a


_GATED = dict(
    _ENTRIES,
    OneShotTotal=lambda a, rs: L.OneShotTotal(a, L.TotalConfig(p=1, gamma=0.5), rs),
    regression=lambda a, rs: L.regression_via_sensitivity(a, np.ones(a.shape[0]), 1.5),
    linf_embedding=lambda a, rs: L.linf_embedding(a),
    leverage_approx=lambda a, rs: L.leverage_approx(a, 0.5, rs),
)


@pytest.mark.parametrize("make", [_wide, _duplicated_column], ids=["wide", "duplicated_column"])
@pytest.mark.parametrize("entry", list(_GATED))
def test_every_gated_entry_rejects_rank_deficient_input(np_rng, make, entry):
    with pytest.raises(L.RankDeficientError):
        _GATED[entry](make(np_rng), L.RandomSource(0))


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
