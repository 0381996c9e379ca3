"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own solvers: sensitivities
are recomputed from the definition by dense direction grids (d = 2), by
scipy's interior-point LP (p = 1), by closed forms (p = 2), or by generic
smooth minimization (other p), so agreement is meaningful evidence.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria summary:")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line("  " + line)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


def random_tall(rng, n, d, scale_rows=False):
    """Random full-rank tall matrix; optionally with wildly uneven row norms."""
    a = rng.standard_normal((n, d))
    if scale_rows:
        a *= np.exp(rng.uniform(-3, 3, size=n))[:, None]
    return a


def certificate_bindings():
    """Every module of the package that binds ``certified_cholesky``: core,
    and any module that imports it by name."""
    import lpsens  # noqa: F401 - loads the package's modules

    return [
        module
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] == "lpsens" and "certified_cholesky" in vars(module)
    ]


def factorization_shapes(monkeypatch, call):
    """The factorizations ``call`` decides a rank with, in order:
    ("cholesky", shape) for each ``certified_cholesky`` that certifies, and
    ("pivoted", shape) for each column-pivoted ``scipy.linalg.qr``.  Every
    binding of ``certified_cholesky`` in the package is spied on, so the
    oracle's factor of its own B and the regression's of its augmented
    matrix are counted too."""
    import scipy.linalg

    import lpsens.core as core

    qr, certify, seen = scipy.linalg.qr, core.certified_cholesky, []

    def counting_qr(x, *args, **kwargs):
        if kwargs.get("pivoting"):
            seen.append(("pivoted", np.shape(x)))
        return qr(x, *args, **kwargs)

    def counting_certify(x):
        factor = certify(x)
        if factor is not None:
            seen.append(("cholesky", np.shape(x)))
        return factor

    monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
    for module in certificate_bindings():
        monkeypatch.setattr(module, "certified_cholesky", counting_certify)
    call()
    return seen


def grid_directions(steps=20000):
    theta = np.linspace(0.0, np.pi, steps, endpoint=False)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def sensitivity_grid_2d(a, i, p, steps=20000):
    """Definition-level oracle for d = 2: scan unit directions densely."""
    x = grid_directions(steps)
    num = np.abs(x @ a[i]) ** p
    den = np.sum(np.abs(x @ a.T) ** p, axis=1)
    return float((num / den).max())


def min_l1_on_hyperplane_linprog(b, a_row):
    """Oracle for min ||B x||_1 subject to a@x = 1 via scipy's LP."""
    m, d = b.shape
    c = np.concatenate([np.zeros(d), np.ones(m)])
    a_ub = np.block([[b, -np.eye(m)], [-b, -np.eye(m)]])
    b_ub = np.zeros(2 * m)
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.concatenate([a_row, np.zeros(m)])[None, :],
        b_eq=[1.0],
        bounds=[(None, None)] * d + [(0, None)] * m,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun), res.x[:d]


def min_lp_on_hyperplane_scipy(b, a_row, p):
    """Oracle for min ||B x||_p^p subject to a@x = 1, smooth p > 1.

    Eliminates the constraint through the largest coordinate of a and
    minimizes the smooth objective from several starts.
    """
    d = b.shape[1]
    k = int(np.argmax(np.abs(a_row)))
    rest = [j for j in range(d) if j != k]

    def expand(z):
        x = np.zeros(d)
        x[rest] = z
        x[k] = (1.0 - a_row[rest] @ z) / a_row[k]
        return x

    def obj(z):
        r = b @ expand(z)
        return float(np.sum(np.abs(r) ** p))

    best = None
    starts = [np.zeros(d - 1)]
    gen = np.random.default_rng(0)
    starts += [gen.standard_normal(d - 1) * s for s in (0.1, 1.0)]
    for z0 in starts:
        res = minimize(obj, z0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 50000})
        if best is None or res.fun < best[0]:
            best = (float(res.fun), expand(res.x))
    return best


def leverage_svd_oracle(a):
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-10 * s[0] if s.size else s.astype(bool)
    return np.sum(u[:, keep] ** 2, axis=1)


def regression_direct(a, b, p):
    """Oracle for min_y ||A y - b||_p^p without using the package."""
    if p == 1:
        m, d = a.shape
        c = np.concatenate([np.zeros(d), np.ones(m)])
        a_ub = np.block([[a, -np.eye(m)], [-a, -np.eye(m)]])
        b_ub = np.concatenate([b, -b])
        res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None)] * d + [(0, None)] * m, method="highs")
        assert res.status == 0
        return float(res.fun), res.x[:d]
    if p == 2:
        y, *_ = np.linalg.lstsq(a, b, rcond=None)
        r = a @ y - b
        return float(r @ r), y
    y0, *_ = np.linalg.lstsq(a, b, rcond=None)

    def obj(y):
        return float(np.sum(np.abs(a @ y - b) ** p))

    res = minimize(obj, y0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 50000})
    return float(res.fun), res.x
