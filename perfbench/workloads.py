"""Seeded inputs and the timed calls of each benchmark workload.

Each workload is one matrix family plus the p values it is run at.  Every
workload calls every public entry point the end-to-end metrics name, so each
run reports all of them; the workloads differ in which layer the calls load:

* lp1: p = 1, so every oracle call is a dense simplex LP (plus a few wide
  LPs from the regression reductions on a taller companion matrix);
* irls: p = 1.5 and 3, so every oracle call is a smoothed IRLS solve;
* tall: many rows and p = 2, so the oracle is closed form and the time goes
  to rank gates, per-block Gram pseudoinverses, Lewis iterations and the
  leverage sketch.

All estimator randomness comes from ``RandomSource(seed)`` children, so each
round of a run repeats bit-identical work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

GAMMA = 0.2  # total-sensitivity accuracy target (acceptance 05 and 06 setting)
SIGNS, REPS = 8, 3  # rowwise sign combinations per block and repetitions (acceptance 04)
EMBED_EPS = 0.5  # lp_embedding distortion for the coreset ("weights") call
LEVERAGE_EPS = 0.5
# calls whose cost hangs on a few rows run on this many independent matrices
# per execution (oneshot on the first two), so one seed's draw moves their
# time less
INSTANCES = 4
ONESHOT_INSTANCES = 2


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    d: int
    spread: float  # rows are scaled by exp(U(-spread, spread))
    ps: tuple[float, ...]  # p of exact, rowwise, oneshot and max
    alpha: int  # rowwise block size
    weights_ps: tuple[float, ...]  # p of the Lewis weights + embedding call
    reduce_ps: tuple[float, float] | None = None  # (regression p, leave-one-out p); None = each of ps
    companion: tuple[int, int] | None = None  # (rows, cols) of Gaussian reduce matrices, else As


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="lp1-112x4",
            n=112, d=4, spread=1.5, ps=(1.0,), alpha=10, weights_ps=(1.0,),
            companion=(300, 8),
        ),
        Spec(
            name="irls-128x4",
            n=128, d=4, spread=1.5, ps=(1.5, 3.0), alpha=10, weights_ps=(1.5, 3.0),
        ),
        Spec(
            name="tall-25kx16",
            n=25_000, d=16, spread=2.0, ps=(2.0,), alpha=200, weights_ps=(1.5, 3.0),
            reduce_ps=(1.5, 2.0),
        ),
    )
}


@dataclass
class Call:
    """One timed call: its end-to-end metric, what it computes and at which p."""

    metric: str
    label: str
    kind: str
    p: float
    fn: Callable[[], object]
    params: dict = field(default_factory=dict)
    count: int = 1  # library calls per execution; fn returns a list of their outputs when > 1


@dataclass
class Plan:
    inputs: dict[str, list[np.ndarray]]
    calls: list[Call]


def heavy_tailed(gen: np.random.Generator, n: int, d: int, spread: float) -> np.ndarray:
    """Gaussian rows scaled by exp(U(-spread, spread)), as in the acceptance tests."""
    return gen.standard_normal((n, d)) * np.exp(gen.uniform(-spread, spread, n))[:, None]


def make_inputs(spec: Spec, seed: int, tiny: bool = False) -> dict[str, list[np.ndarray]]:
    """The workload's matrices and targets; the same seed gives the same arrays.

    ``As`` are independent matrices of the workload's shape; most calls use
    ``As[0]``.  ``Rs`` and ``ys`` are the reductions' matrices and targets.
    """
    n = 3 * spec.d if tiny else spec.n
    gen = np.random.default_rng([seed, sorted(SPECS).index(spec.name)])
    out = {"As": [heavy_tailed(gen, n, spec.d, spec.spread) for _ in range(INSTANCES)]}
    if spec.companion is None:
        out["Rs"] = out["As"]
    else:
        m, k = (3 * spec.companion[1], spec.companion[1]) if tiny else spec.companion
        out["Rs"] = [gen.standard_normal((m, k)) for _ in range(INSTANCES)]
    out["ys"] = [gen.standard_normal(r.shape[0]) for r in out["Rs"]]
    return out


def build(spec: Spec, seed: int, tiny: bool = False) -> Plan:
    """Inputs plus the ordered list of timed calls for one round."""
    import lpsens as L

    inp = make_inputs(spec, seed, tiny)
    mats = inp["As"]
    a = mats[0]
    alpha = 2 if tiny else spec.alpha
    rs = L.RandomSource(seed)
    calls: list[Call] = []

    def add(metric, label, kind, p, fn, count=1, **params):
        calls.append(Call(metric, label, kind, p, fn, params, count))

    for p in spec.ps:
        add("exact_time", f"exact p={p:g}", "exact", p,
            lambda p=p: L.sensitivities_exact(a, p))
        cfg = L.RowwiseConfig(p=p, alpha=alpha, signs_per_block=SIGNS, repetitions=REPS)
        add("rowwise_time", f"rowwise p={p:g}", "rowwise", p,
            lambda p=p, cfg=cfg: L.sensitivities_rowwise(a, cfg, rs.child("rowwise", str(p))),
            alpha=alpha)
        tcfg = L.TotalConfig(p=p, gamma=GAMMA)
        add("oneshot_time", f"oneshot p={p:g}", "oneshot", p,
            lambda p=p, tcfg=tcfg: [L.total_lewis_oneshot(m, tcfg, rs.child("oneshot", str(p), k))
                                    for k, m in enumerate(mats[:ONESHOT_INSTANCES])],
            count=ONESHOT_INSTANCES)
        if p == 1:
            rcfg = L.TotalConfig(p=1.0, gamma=GAMMA, method="recursive_l1")
            add("recursive_l1_time", "recursive_l1 p=1", "recursive", p,
                lambda rcfg=rcfg: L.total_recursive_l1(a, rcfg, rs.child("recursive")))
        add("max_time", f"max p={p:g}", "max", p,
            lambda p=p: [L.max_sensitivity(m, p, rs.child("max", str(p), k))
                         for k, m in enumerate(mats)],
            count=INSTANCES)

    rmats, ys = inp["Rs"], inp["ys"]
    pairs = [spec.reduce_ps] if spec.reduce_ps else [(p, p) for p in spec.ps]
    for p_reg, p_loo in pairs:
        add("reduce_time", f"regression p={p_reg:g}", "regression", p_reg,
            lambda p=p_reg: [L.regression_via_sensitivity(m, y, p) for m, y in zip(rmats, ys)],
            count=INSTANCES, matrices=rmats, targets=ys)
        add("reduce_time", f"leave_one_out p={p_loo:g}", "leave_one_out", p_loo,
            lambda p=p_loo: [L.leave_one_out_multiregression(m, p) for m in rmats],
            count=INSTANCES, matrices=rmats)

    for p in spec.weights_ps:
        def weights(p=p):
            w = L.lewis_weights(a, L.LewisConfig(p=p))
            emb = L.lp_embedding(a, p, EMBED_EPS, rs.child("weights", str(p)), weights=w.values)
            return w, emb
        add("weights_time", f"weights p={p:g}", "weights", p, weights)

    add("leverage_approx_time", "leverage_approx", "leverage_approx", 2.0,
        lambda: L.leverage_approx(a, LEVERAGE_EPS, rs.child("leverage_approx")))
    return Plan(inputs=inp, calls=calls)


def output_arrays(kind: str, out) -> list[np.ndarray]:
    """Every seeded number a call returned, as arrays for the output digest."""
    if kind in ("exact", "leverage_approx"):
        return [out.values]
    if kind == "rowwise":
        return [out.estimates.values, out.per_repetition,
                np.array([out.oracle_calls, out.embedded_rows])]
    if kind == "recursive":
        return [np.array([out])]
    if kind in ("oneshot", "regression", "leave_one_out"):
        return [np.array(out)]
    if kind == "max":
        return [np.array([[m.estimate, m.raw_max, m.distortion_multiplier] for m in out]),
                np.array([m.spanner_rows for m in out], dtype=np.int64)]
    if kind == "weights":
        w, emb = out
        return [w.values, emb.source_rows.astype(np.int64), emb.scales]
    raise ValueError(f"unknown call kind {kind!r}")
